"""End-to-end regression sweep: production vs the reference saturation engine.

Runs the full synthesis pipeline twice per model — once with the production
saturation engine (compiled-trie incremental matcher and applied-match
ledger) and once with the reference engine of ``tests/saturation_oracle.py``
(:class:`ReferenceRunner` with the naive per-rule sweep, re-applying every
match) — and asserts the outputs are interchangeable: a byte-identical
canonical top-k (every candidate's cost and text) and a valid output
program (structural/unrolling validation against the flat input).

The models are the 16 of Table 1 and the five ``scale`` models of
``perfbench.workloads.scale_items(1)`` (read only): a 50-tooth gear, a
plate of holes, a noisy ring, a rail and a scatter, the largest e-graphs
the suite builds.

Marked ``slow``: CI runs this in its own lane; deselect locally with
``-m "not slow"``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.benchsuite.suite import BENCHMARKS
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.lang.canon import canonical_term_text
from repro.verify.validate import validate_synthesis
from saturation_oracle import ReferenceRunner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import scale_items  # noqa: E402

pytestmark = pytest.mark.slow

_CASES = [
    pytest.param(bench.build, SynthesisConfig(cost_function=bench.cost_function), id=bench.name)
    for bench in BENCHMARKS
] + [
    pytest.param(lambda item=item: item.term, item.config, id=f"scale-{item.name}")
    for item in scale_items(1)
]


def _top_k(result) -> list:
    """``(cost, canonical text)`` of every candidate, in rank order."""
    return [(c.cost, canonical_term_text(c.term)) for c in result.candidates]


@pytest.mark.parametrize("build, config", _CASES)
def test_incremental_pipeline_parity_and_validity(build, config, monkeypatch):
    flat = build()
    production = synthesize(flat, config)
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.pipeline.Runner", ReferenceRunner)
        reference = synthesize(flat, config)

    assert production.candidates, "no candidates"
    assert _top_k(production) == _top_k(reference)
    # Output validity: the reported program re-parameterizes the input.
    report = validate_synthesis(flat, production.output_term())
    assert report.valid, report
    # Each engine really ran: production swept once, then re-matched only
    # the dirty closure; the reference's naive matcher re-matched every
    # rule in full every iteration (no closure, nothing served from a
    # cache) and skipped no application.
    iterations = [it for run in production.run_reports for it in run.iterations]
    assert iterations and all(it.trie_programs > 0 for it in iterations)
    assert iterations[0].searched_classes == iterations[0].cached_matches == 0
    assert len(iterations) == 1 or iterations[1].searched_classes > 0
    swept = [it for run in reference.run_reports for it in run.iterations]
    assert swept
    assert all(it.searched_classes == it.cached_matches == 0 for it in swept)
    assert all(it.skipped_applications == 0 for it in swept)
