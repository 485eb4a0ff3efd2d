"""Semantic cache tier: variant warm runs over the full Table 1 suite.

Runs the 16-model suite cold against a fresh content-addressed cache, then
re-runs it over *semantically respelled variants* of every model (renamed
binders, reordered commutative operands, int/float literal flips).  Every
variant must be served from the warm cache at the semantic level — zero
exact hits, 100% hit rate — with rows identical to the cold run, and the
measured warm speedup is recorded under the ``semantic_cache`` key of
``BENCH_saturation.json`` for the CI regression gate.

The hit-rate and row-parity assertions are deterministic; only the
speedup floor depends on wall clock (a cache read versus a full synthesis
run, so the margin is enormous even on shared runners), and it is asserted,
like the record written, only under ``--bench`` (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.benchsuite.table1 import run_table1_batch
from repro.benchsuite.variants import semantic_variant
from repro.service.cache import ResultCache


#: Serving respelled inputs from the cache must beat resynthesizing them.
REQUIRED_WARM_SPEEDUP = 3.0


def _mask_seconds(rows):
    return [replace(row, seconds=0.0) for row in rows]


@pytest.mark.figure
def test_semantic_cache_serves_variants_warm(tmp_path, bench, bench_record):
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_table1_batch(cache=ResultCache(cache_dir))
    cold_seconds = time.perf_counter() - start
    assert not cold.failures
    assert cold.batch.hit_rate == 0.0

    start = time.perf_counter()
    warm = run_table1_batch(cache=ResultCache(cache_dir), mutate=semantic_variant)
    warm_seconds = time.perf_counter() - start
    assert not warm.failures

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    bench_record(
        {
            "semantic_cache": {
                "models": len(cold.rows),
                "cold_seconds": cold_seconds,
                "variant_warm_seconds": warm_seconds,
                "hit_rate": warm.batch.hit_rate,
                "exact_hits": warm.batch.exact_hits,
                "semantic_hits": warm.batch.semantic_hits,
                "speedup_vs_cold": speedup,
            }
        }
    )

    # Correctness gates: every respelled model is served from the cache at
    # the semantic level (the exact tier cannot see it), and the served
    # rows are byte-identical to the cold run's.
    assert warm.batch.hit_rate == 1.0
    assert warm.batch.exact_hits == 0
    assert warm.batch.semantic_hits == len(cold.rows)
    assert all(r.cache_tier == "semantic" for r in warm.batch.results)
    assert _mask_seconds(warm.rows) == _mask_seconds(cold.rows)

    # Throughput gate.
    if bench:
        assert speedup >= REQUIRED_WARM_SPEEDUP, (
            f"variant warm run only {speedup:.1f}x faster than cold "
            f"({warm_seconds:.2f}s vs {cold_seconds:.2f}s)"
        )
