"""Figure 2 — the running example: five translated cubes become one Mapi.

The paper's workflow figure turns

    Union (Trans (2,0,0,Unit), ... Trans (10,0,0,Unit))

into ``Fold (Union, Empty, Mapi (Fun (i, c) -> Trans (2*(i+1), 0, 0, c),
Repeat (Unit, 5)))``.  The benchmark checks exactly that program shape is the
top candidate and times the end-to-end synthesis.
"""

import pytest

from repro.benchsuite.models import fig2_translated_cubes
from repro.cad.evaluator import unroll
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.verify.structural import equivalent_modulo_reordering

pytestmark = pytest.mark.figure


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return synthesize(fig2_translated_cubes(5), SynthesisConfig())

    def test_top_candidate_is_the_mapi_program(self, result):
        best = result.best
        ops = {t.op for t in best.term.subterms()}
        assert {"Fold", "Mapi", "Fun", "Repeat"} <= ops
        assert result.loop_summary() == "n1,5"
        assert result.function_summary() == "d1"

    def test_function_is_two_times_i_plus_one(self, result):
        # Unrolling must reproduce the 2, 4, ..., 10 positions exactly.
        flat = unroll(result.best.term)
        assert equivalent_modulo_reordering(flat, fig2_translated_cubes(5), epsilon=1e-9)

    def test_scales_with_count(self):
        for count in (3, 10, 20):
            result = synthesize(fig2_translated_cubes(count), SynthesisConfig())
            assert result.loop_summary() == f"n1,{count}"

    def test_benchmark_timing(self):
        flat = fig2_translated_cubes(5)
        result = synthesize(flat, SynthesisConfig())
        assert result.exposes_structure()
