"""Integration tests: the paper's figure examples through the full pipeline.

Each test runs `synthesize` on a running example from the paper and checks
that the expected structure is recovered and that the result is a valid
(translation-validated) re-parameterization of the input.
"""

import pytest

from repro.benchsuite.models import (
    fig2_translated_cubes,
    fig10_nested_affine,
    fig14_grid,
    fig16_noisy_hexagons,
    fig17_dice_six,
    fig18_hexcell_plate,
    gear_model,
)
from repro.cad.evaluator import unroll
from repro.core.analysis import find_loops, function_kinds
from repro.core.config import SynthesisConfig
from repro.core.function_inference import FunctionInference
from repro.core.loop_inference import LoopInference
from repro.core.pipeline import synthesize
from repro.csg.metrics import measure
from repro.verify.geometric import occupancy_agreement
from repro.verify.validate import validate_synthesis


def _synth(flat, **kwargs):
    return synthesize(flat, SynthesisConfig(**kwargs))


class TestFig2TranslatedCubes:
    def test_recovers_single_loop(self):
        flat = fig2_translated_cubes(5)
        result = _synth(flat)
        assert result.exposes_structure()
        assert result.structured_rank() == 1
        assert result.loop_summary() == "n1,5"
        assert result.function_summary() == "d1"

    def test_output_is_much_smaller(self):
        flat = fig2_translated_cubes(8)
        result = _synth(flat)
        assert result.size_reduction() > 0.4

    def test_validates_by_unrolling(self):
        flat = fig2_translated_cubes(5)
        result = _synth(flat)
        report = validate_synthesis(flat, result.output_term())
        assert report.valid

    def test_top_k_contains_flat_variant_too(self):
        flat = fig2_translated_cubes(4)
        result = _synth(flat)
        assert any(not candidate.has_loops for candidate in result.candidates)

    def test_candidate_costs_sorted(self):
        result = _synth(fig2_translated_cubes(5))
        costs = [candidate.cost for candidate in result.candidates]
        assert costs == sorted(costs)


class TestFig10NestedAffine:
    def test_all_three_layers_parameterized(self):
        # With only three repetitions the flat program is smaller, so the
        # structured view wins under the loop-rewarding cost function — the
        # same knob the paper uses for the wardrobe model.
        flat = fig10_nested_affine(3)
        result = _synth(flat, cost_function="reward-loops")
        assert result.exposes_structure()
        assert result.structured_rank() == 1
        best = result.best_structured().term
        ops = {t.op for t in best.subterms()}
        assert "Mapi" in ops
        # The synthesized function must mention all three affine layers.
        assert {"Translate", "Rotate", "Scale"} <= ops

    def test_validates(self):
        flat = fig10_nested_affine(3)
        result = _synth(flat, cost_function="reward-loops")
        assert validate_synthesis(flat, result.output_term()).valid

    def test_larger_instance(self):
        flat = fig10_nested_affine(6)
        result = _synth(flat)
        assert result.exposes_structure()
        assert result.loop_summary() == "n1,6"


class TestFig14Grid:
    def test_doubly_nested_loop_discovered(self):
        flat = fig14_grid(2, 2)
        result = _synth(flat)
        # The 2x2 nested loop is inferred and merged into the e-graph even
        # when the (tiny) flat program wins the size-based ranking.
        assert any(
            record.kind == "nested-loop" and record.loop_bounds == (2, 2)
            for record in result.inference_records
        )

    def test_doubly_nested_loop_ranked_first_under_reward_loops(self):
        flat = fig14_grid(2, 2)
        result = _synth(flat, cost_function="reward-loops")
        assert result.loop_summary() == "n2,2,2"
        assert result.structured_rank() == 1

    def test_3x4_grid(self):
        flat = fig14_grid(3, 4)
        result = _synth(flat)
        assert result.exposes_structure()
        summary = result.loop_summary()
        assert summary.startswith("n2"), summary

    def test_validates_geometrically(self):
        flat = fig14_grid(2, 2)
        result = _synth(flat, cost_function="reward-loops")
        assert validate_synthesis(flat, result.output_term()).valid
        assert occupancy_agreement(flat, unroll(result.output_term()), resolution=14).equivalent()


class TestFig16NoisyHexagons:
    def test_structure_recovered_from_noise(self):
        flat = fig16_noisy_hexagons()
        result = _synth(flat)
        # The epsilon-tolerant solvers find closed forms despite the
        # decompiler noise; the loop over the first two hexagons is among
        # the inferred parameterizations.
        assert any(r.kind in ("mapi", "mapi-partial") for r in result.inference_records)
        structured = _synth(flat, cost_function="reward-loops")
        assert structured.exposes_structure()
        assert validate_synthesis(flat, structured.output_term()).valid

    def test_output_not_larger_than_input(self):
        flat = fig16_noisy_hexagons()
        result = _synth(flat)
        assert result.output_metrics().nodes <= measure(flat).nodes


class TestFig17DiceSix:
    def test_nested_loop_found(self):
        flat = fig17_dice_six()
        result = _synth(flat)
        # The 2x3 nested loop is discovered, and a structured program is in
        # the top-5 (the paper reports rank 2 for the dice model).
        assert any(
            record.kind == "nested-loop" and sorted(record.loop_bounds) == [2, 3]
            for record in result.inference_records
        )
        assert result.exposes_structure()
        assert result.structured_rank() is not None and result.structured_rank() <= 5

    def test_nested_loop_ranked_first_under_reward_loops(self):
        flat = fig17_dice_six()
        result = _synth(flat, cost_function="reward-loops")
        summary = result.loop_summary()
        assert summary.startswith("n2"), summary
        bounds = sorted(int(b) for b in summary.split(",")[1:])
        assert bounds == [2, 3]

    def test_validates(self):
        flat = fig17_dice_six()
        result = _synth(flat)
        assert validate_synthesis(flat, result.output_term()).valid


class TestFig18HexCell:
    def test_both_loop_and_trig_descriptions_exist(self):
        flat = fig18_hexcell_plate()
        result = _synth(flat)
        kinds = {record.kind for record in result.inference_records}
        # Solution diversity: the nested-loop description is inferred; the
        # trigonometric one is inferred for the hc-bits benchmark variant.
        assert "nested-loop" in kinds

    def test_structure_at_rank_one_under_reward_loops(self):
        flat = fig18_hexcell_plate()
        result = _synth(flat, cost_function="reward-loops")
        assert result.structured_rank() == 1
        assert result.loop_summary() == "n2,2,2"

    def test_validates(self):
        flat = fig18_hexcell_plate()
        result = _synth(flat, cost_function="reward-loops")
        assert validate_synthesis(flat, result.output_term()).valid


class TestGearSmall:
    """A reduced-tooth-count gear keeps the unit-test suite fast; the full
    60-tooth model is exercised by the benchmarks."""

    def test_gear_12_teeth(self):
        flat = gear_model(teeth=12)
        result = _synth(flat)
        assert result.exposes_structure()
        assert result.loop_summary() == "n1,12"
        assert result.function_summary() == "d1"
        assert result.structured_rank() == 1

    def test_gear_size_reduction(self):
        flat = gear_model(teeth=12)
        result = _synth(flat)
        assert result.size_reduction() > 0.6

    def test_gear_validates(self):
        flat = gear_model(teeth=12)
        result = _synth(flat)
        report = validate_synthesis(flat, result.output_term())
        assert report.valid


class TestPipelineConfigurations:
    def test_disable_function_inference_ablation(self, monkeypatch):
        flat = fig2_translated_cubes(5)
        monkeypatch.setattr(FunctionInference, "run", lambda self: 0)
        monkeypatch.setattr(LoopInference, "run", lambda self: 0)
        result = synthesize(flat, SynthesisConfig())
        # Without the arithmetic component no Mapi can appear.
        assert all("Mapi" not in {t.op for t in c.term.subterms()} for c in result.candidates)

    def test_top_k_respected(self):
        result = synthesize(fig2_translated_cubes(4), SynthesisConfig(top_k=3))
        assert len(result.candidates) <= 3

    @pytest.mark.parametrize(
        "bad, message",
        [({"top_k": 0}, "top_k"), ({"top_k": -2}, "top_k"), ({"cost_function": "bogus"}, "bogus")],
    )
    def test_invalid_extraction_knobs_rejected_at_construction(self, bad, message):
        # Rejected before any synthesis runs, on both construction paths.
        with pytest.raises(ValueError, match=message):
            SynthesisConfig(**bad)
        with pytest.raises(ValueError, match=message):
            SynthesisConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"epsilon": float("nan")}, "epsilon"),
            ({"epsilon": -1.0}, "epsilon"),
            ({"rewrite_iterations": -3}, "rewrite_iterations"),
            ({"max_enodes": 0}, "max_enodes"),
            ({"max_seconds": float("nan")}, "max_seconds"),
            ({"max_seconds": -1.0}, "max_seconds"),
        ],
    )
    def test_run_knobs_no_run_can_use_rejected_at_construction(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SynthesisConfig(**bad)
        with pytest.raises(ValueError, match=message):
            SynthesisConfig.from_dict(bad)

    def test_run_knobs_at_their_bounds_are_accepted(self):
        config = SynthesisConfig(epsilon=0.0, rewrite_iterations=0, max_enodes=1, max_seconds=0.5)
        assert SynthesisConfig.from_dict(config.to_dict()) == config

    def test_reward_loops_cost_function(self):
        result = synthesize(fig2_translated_cubes(5), SynthesisConfig(cost_function="reward-loops"))
        assert result.exposes_structure()
        assert result.best.has_loops
