"""End-to-end regression sweep: every bundled model, production vs reference engine.

Runs the full synthesis pipeline over the whole Table 1 benchmark suite
twice — once with the production saturation engine (compiled-trie
incremental matcher and applied-match ledger) and once with the reference
engine (``Runner(incremental=False, dedup=False)``: the naive per-rule
sweep, re-applying every match) — and asserts the outputs are
interchangeable: a valid output program (structural/unrolling validation
against the flat input) and identical best cost and candidate cost lists.

Marked ``slow``: CI runs this in its own lane; deselect locally with
``-m "not slow"``.
"""

from __future__ import annotations

import functools

import pytest

from repro.benchsuite.suite import BENCHMARKS
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.egraph.runner import Runner
from repro.verify.validate import validate_synthesis

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_incremental_pipeline_parity_and_validity(bench, monkeypatch):
    flat = bench.build()
    config = SynthesisConfig(cost_function=bench.cost_function)
    incremental = synthesize(flat, config)
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.core.pipeline.Runner",
            functools.partial(Runner, incremental=False, dedup=False),
        )
        naive = synthesize(flat, config)

    assert incremental.candidates, f"{bench.name}: no candidates"
    # Best-cost parity with the reference engine.
    assert incremental.best.cost == naive.best.cost, bench.name
    assert [c.cost for c in incremental.candidates] == [c.cost for c in naive.candidates]
    # Same reported program (structure exposure must not regress either way).
    assert incremental.exposes_structure() == naive.exposes_structure()
    # Output validity: the reported program re-parameterizes the input.
    report = validate_synthesis(flat, incremental.output_term())
    assert report.valid, f"{bench.name}: {report}"
    # The incremental run actually exercised the trie machinery.
    iterations = [it for run in incremental.run_reports for it in run.iterations]
    assert any(it.dirty_classes is not None for it in iterations)
    assert all(it.trie_programs > 0 for it in iterations if it.dirty_classes is not None)
    # The patch took effect: every reference iteration ran the naive sweep
    # and skipped no application.
    reference = [it for run in naive.run_reports for it in run.iterations]
    assert reference
    assert all(it.dirty_classes is None for it in reference)
    assert all(it.skipped_applications == 0 for it in reference)
