"""Batch synthesis service throughput: workers and the warm cache.

Runs the full 16-model Table 1 suite three ways through the service —
serially in-process, fanned out across worker processes against a fresh
content-addressed cache, and again warm against the populated cache — and
records the measured multi-worker wall-clock speedup plus the warm-cache
hit rate under the ``batch_service`` key of ``BENCH_saturation.json``.

Row parity across all three paths and the 100% warm hit rate are hard
assertions.  The wall-clock *speedup* assertions run only under ``--bench``
(see ``benchmarks/conftest.py``), and the parallel one only on machines with
at least two CPU cores: process parallelism cannot beat serial execution on
a single core, and on shared runners the ratio wobbles — the bench-smoke CI
job that passes ``--bench`` is non-blocking for that reason.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.benchsuite.table1 import run_table1_batch
from repro.service.cache import ResultCache


#: Wall-clock speedup the worker pool must demonstrate on a multi-core box.
REQUIRED_PARALLEL_SPEEDUP = 1.3

#: A warm cache must beat even the parallel cold run by at least this much.
REQUIRED_WARM_SPEEDUP = 3.0


def _mask_seconds(rows):
    return [replace(row, seconds=0.0) for row in rows]


@pytest.mark.figure
def test_batch_service_parallel_speedup_and_warm_cache(tmp_path, bench, bench_record):
    cpu_count = os.cpu_count() or 1
    worker_count = max(2, min(4, cpu_count))
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    serial = run_table1_batch(worker_count=0)
    serial_seconds = time.perf_counter() - start
    assert not serial.failures

    start = time.perf_counter()
    parallel = run_table1_batch(worker_count=worker_count, cache=ResultCache(cache_dir))
    parallel_seconds = time.perf_counter() - start
    assert not parallel.failures
    assert parallel.batch.hit_rate == 0.0

    start = time.perf_counter()
    warm = run_table1_batch(worker_count=worker_count, cache=ResultCache(cache_dir))
    warm_seconds = time.perf_counter() - start
    assert not warm.failures

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    warm_speedup = parallel_seconds / max(warm_seconds, 1e-9)
    bench_record(
        {
            "batch_service": {
                "models": len(serial.rows),
                "cpu_count": cpu_count,
                "worker_count": worker_count,
                "serial_seconds": serial_seconds,
                "parallel_seconds": parallel_seconds,
                "parallel_speedup": speedup,
                "warm_cache": {
                    "seconds": warm_seconds,
                    "hit_rate": warm.batch.hit_rate,
                    "speedup_vs_cold_parallel": warm_speedup,
                },
            }
        }
    )

    # Correctness gates: identical rows on every path, 100% warm hit rate.
    assert _mask_seconds(parallel.rows) == _mask_seconds(serial.rows)
    assert _mask_seconds(warm.rows) == _mask_seconds(serial.rows)
    assert warm.batch.hit_rate == 1.0
    assert all(result.cached for result in warm.batch.results)

    # Throughput gates.
    if not bench:
        return
    assert warm_speedup >= REQUIRED_WARM_SPEEDUP, (
        f"warm cache only {warm_speedup:.1f}x faster than the cold parallel run "
        f"({warm_seconds:.2f}s vs {parallel_seconds:.2f}s)"
    )
    if cpu_count >= 2:
        assert speedup >= REQUIRED_PARALLEL_SPEEDUP, (
            f"{worker_count} workers only {speedup:.2f}x faster than serial "
            f"({parallel_seconds:.2f}s vs {serial_seconds:.2f}s)"
        )
