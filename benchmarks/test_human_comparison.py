"""Section 6.2 — comparison against human-written models.

The paper's claim: for every model whose human-written OpenSCAD used loops,
Szalinski infers the same loop from the flat trace; for the dice it infers a
loop the human author wrote out by hand.  The comparison here uses the
structured LambdaCAD references in :mod:`repro.benchsuite.human`.
"""

import pytest

from repro.benchsuite.human import human_reference
from repro.benchsuite.models import fig17_dice_six
from repro.cad.evaluator import unroll
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.verify.structural import equivalent_modulo_reordering
from repro.verify.validate import validate_synthesis

pytestmark = pytest.mark.table1


class TestSameLoopsAsHumans:
    @pytest.mark.parametrize("name,bounds", [("gear", (60,)), ("tape-store", (10,))])
    def test_same_loop_bound_as_human(self, name, bounds):
        reference = human_reference(name)
        result = synthesize(reference.flat, SynthesisConfig())
        assert result.exposes_structure()
        summary = result.loop_summary()
        assert summary == f"n1,{bounds[0]}"

    def test_synthesized_program_equals_human_geometry(self):
        # Both the synthesized program and the human-written one must unroll
        # to the same flat trace (the synthesized one may place the affine
        # transformations in a different but equivalent order, so the
        # comparison goes through the shared flat input and geometry).
        reference = human_reference("gear")
        result = synthesize(reference.flat, SynthesisConfig())
        assert validate_synthesis(reference.flat, result.output_term()).valid
        assert validate_synthesis(reference.flat, reference.structured).valid

    def test_hexcell_human_nested_loop_matched(self):
        reference = human_reference("hc-bits")
        result = synthesize(
            reference.flat, SynthesisConfig(cost_function="reward-loops")
        )
        assert result.exposes_structure()
        assert "2,2" in result.loop_summary()


class TestBeyondHumans:
    def test_dice_face_loop_that_the_human_did_not_write(self):
        # The human-written dice face is flat; Szalinski finds the 2x3 loop.
        reference = human_reference("dice-six")
        assert reference.loop_bounds == ()
        result = synthesize(
            fig17_dice_six(), SynthesisConfig(cost_function="reward-loops")
        )
        assert result.exposes_structure()
        assert sorted(int(b) for b in result.loop_summary().split(",")[1:]) == [2, 3]
