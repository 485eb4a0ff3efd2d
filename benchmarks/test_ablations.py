"""Ablation benchmarks for the design choices of the paper's architecture.

Not a table in the paper, but the paper's architecture argument ("syntactic
rewrites alone cannot infer loop parameters"; "the arithmetic component needs
the determinized lists the rewrites produce") is directly testable by turning
individual components off (by patching their ``run`` to do nothing):

* rewrites only (no arithmetic component) — no Mapi can appear;
* arithmetic only (no fold-introducing rewrites) — nothing for the solvers to
  chew on, output stays flat;
* full pipeline — structure exposed.

Two engine-level smokes saturate the gear: it grows a large e-graph, and a
larger gear costs well under quadratically more.
"""

import time

import pytest

from repro.benchsuite.models import fig2_translated_cubes, gear_model
from repro.core.config import SynthesisConfig
from repro.core.function_inference import FunctionInference
from repro.core.loop_inference import LoopInference
from repro.core.pipeline import synthesize
from repro.core.rules import default_rules
from repro.egraph.egraph import EGraph
from repro.egraph.runner import Runner, RunnerLimits

pytestmark = pytest.mark.table1


class TestComponentAblations:
    FLAT = staticmethod(lambda: fig2_translated_cubes(8))

    def test_full_pipeline_exposes_structure(self):
        result = synthesize(self.FLAT(), SynthesisConfig())
        assert result.exposes_structure()

    def test_without_arithmetic_component(self, monkeypatch):
        monkeypatch.setattr(FunctionInference, "run", lambda self: 0)
        monkeypatch.setattr(LoopInference, "run", lambda self: 0)
        result = synthesize(self.FLAT(), SynthesisConfig())
        # Syntactic rewrites alone cannot infer loop parameters (Section 3.2).
        assert all(
            "Mapi" not in {t.op for t in candidate.term.subterms()}
            for candidate in result.candidates
        )

    def test_without_fold_rewrites(self):
        config = SynthesisConfig(
            rule_categories=("affine-lifting", "affine-collapsing", "boolean")
        )
        result = synthesize(self.FLAT(), config)
        # Without folds there is no list for the solvers to parameterize.
        assert not result.exposes_structure()

    def test_loop_inference_only_matters_for_grids(self, monkeypatch):
        monkeypatch.setattr(LoopInference, "run", lambda self: 0)
        result = synthesize(self.FLAT(), SynthesisConfig())
        # A 1-D array is still handled by function inference alone.
        assert result.exposes_structure()

    def test_cost_functions_agree_on_gear(self):
        flat = gear_model(teeth=12)
        by_size = synthesize(flat, SynthesisConfig(cost_function="ast-size"))
        by_loops = synthesize(flat, SynthesisConfig(cost_function="reward-loops"))
        assert by_size.loop_summary() == by_loops.loop_summary() == "n1,12"


class TestEngineMicrobenchmarks:
    def test_equality_saturation_speed(self):
        egraph = EGraph()
        egraph.add_term(gear_model(teeth=24))
        report = Runner(default_rules(), RunnerLimits(max_iterations=8)).run(egraph)
        assert egraph.total_enodes > 500
        assert report.iteration_count >= 1

    def test_rebuild_cost_scales(self):
        timings = {}
        for teeth in (6, 24):
            egraph = EGraph()
            egraph.add_term(gear_model(teeth=teeth))
            runner = Runner(default_rules(), RunnerLimits(max_iterations=4))
            start = time.perf_counter()
            runner.run(egraph)
            timings[teeth] = time.perf_counter() - start
        # Larger models cost more, but well under quadratically more.
        assert timings[24] < timings[6] * 60
