"""Figures 10, 13/14, 16, 17, 18/19 — the structure-inference case studies.

One benchmark class per figure:

* Fig. 10 — nested affine transformations become nested/merged ``Mapi``;
* Fig. 13/14 — m-factorization yields a doubly-nested loop for a 2x2 grid;
* Fig. 16 — decompiler noise is absorbed by the epsilon-tolerant solvers;
* Fig. 17 — the dice's six face gets the 2x3 loop its author wrote out flat;
* Figs. 18/19 — the hex-cell plate admits both a nested-loop and a
  trigonometric description (solution diversity).
"""

import pytest

from repro.benchsuite.models import (
    fig10_nested_affine,
    fig14_grid,
    fig16_noisy_hexagons,
    fig17_dice_six,
    fig18_hexcell_plate,
)
from repro.benchsuite.suite import get_benchmark
from repro.core.analysis import function_kinds
from repro.core.config import SynthesisConfig
from repro.core.loop_inference import m_factorizations, m_index_set
from repro.core.pipeline import synthesize
from repro.verify.validate import validate_synthesis

pytestmark = pytest.mark.figure

_REWARD = SynthesisConfig(cost_function="reward-loops")


class TestFig10NestedAffine:
    def test_triple_nesting_recovered(self):
        flat = fig10_nested_affine(3)
        result = synthesize(flat, _REWARD)
        best = result.best_structured().term
        ops = {t.op for t in best.subterms()}
        assert "Mapi" in ops and {"Translate", "Rotate", "Scale"} <= ops
        assert validate_synthesis(flat, best.term if hasattr(best, "term") else best).valid


class TestFig13Fig14Grid:
    def test_m_factorization_matches_paper_example(self):
        # The paper's example: 2-factorizations of 4 after dropping trivial
        # factors are (2, 2), giving index sets [[0,0,1,1],[0,1,0,1]].
        assert m_factorizations(4, 2) == [(2, 2)]
        assert m_index_set((2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_grid_nested_loop(self):
        flat = fig14_grid(2, 2)
        result = synthesize(flat, _REWARD)
        assert result.loop_summary() == "n2,2,2"
        assert validate_synthesis(flat, result.output_term()).valid

    def test_larger_grid_under_default_cost(self):
        result = synthesize(fig14_grid(3, 4), SynthesisConfig())
        assert result.loop_summary().startswith("n2")


class TestFig16NoisyInput:
    def test_noise_absorbed_and_output_smaller(self):
        flat = fig16_noisy_hexagons()
        result = synthesize(flat, SynthesisConfig())
        # Paper: 55-node input -> 46-node output with a loop, in 0.48 s.
        assert result.output_metrics().nodes <= result.input_metrics().nodes
        assert any(r.kind in ("mapi", "mapi-partial") for r in result.inference_records)
        assert result.seconds < 30.0

    def test_structured_output_validates(self):
        flat = fig16_noisy_hexagons()
        result = synthesize(flat, _REWARD)
        assert result.exposes_structure()
        assert validate_synthesis(flat, result.output_term()).valid


class TestFig17Dice:
    def test_two_by_three_loop(self):
        flat = fig17_dice_six()
        result = synthesize(flat, _REWARD)
        assert sorted(int(b) for b in result.loop_summary().split(",")[1:]) == [2, 3]
        assert validate_synthesis(flat, result.output_term()).valid

    def test_table1_dice_model_gets_three_by_three(self):
        # The full dice benchmark (Table 1 row) exposes the 3x3 pip grid.
        result = synthesize(get_benchmark("dice").build(), SynthesisConfig())
        assert result.loop_summary() == "n2,3,3"


class TestFig18Fig19Diversity:
    def test_loop_description(self):
        flat = fig18_hexcell_plate()
        result = synthesize(flat, _REWARD)
        assert result.loop_summary() == "n2,2,2"

    def test_trigonometric_description_for_hc_bits(self):
        # The Table 1 hc-bits variant (with decompiler noise) is the one the
        # trigonometric solver wins on.
        result = synthesize(get_benchmark("hc-bits").build(), SynthesisConfig())
        assert result.exposes_structure()
        kinds = function_kinds(result.output_term())
        assert "theta" in kinds
