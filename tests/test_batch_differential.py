"""Differential test: serial vs parallel vs cached Table 1 runs.

The acceptance gate of the batch service: routing the benchmark suite
through process-parallel workers and the content-addressed cache must
produce *identical* Table 1 rows to the original serial driver.  Rows are
compared with the measured seconds zeroed out — wall-clock time is the one
column that legitimately differs between runs — including a byte-level
comparison of the rendered table.

A fast subset runs in the blocking suite; the full 16-model sweep carries
the ``slow`` marker and runs in CI's separate slow lane (it costs three
full suite runs).
"""

from dataclasses import replace

import pytest

from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.benchsuite.table1 import format_table, run_table1, run_table1_batch
from repro.service.cache import ResultCache

#: Quick models (a few hundredths of a second each) for the blocking lane.
_FAST_SUBSET = ["sander", "soldering", "hc-bits", "relay-box", "compose"]


def _mask_seconds(rows):
    return [replace(row, seconds=0.0) for row in rows]


def _assert_rows_identical(serial_rows, other_rows, label):
    assert _mask_seconds(other_rows) == _mask_seconds(serial_rows), label
    # Byte-identical rendered table (timing column masked).
    assert format_table(_mask_seconds(other_rows)) == format_table(
        _mask_seconds(serial_rows)
    ), label


def _differential(benchmarks, tmp_path, worker_count):
    serial_rows = run_table1(benchmarks)

    cache_dir = tmp_path / "cache"
    cold = run_table1_batch(
        benchmarks, worker_count=worker_count, cache=ResultCache(cache_dir)
    )
    assert not cold.failures
    assert cold.batch.hit_rate == 0.0
    _assert_rows_identical(serial_rows, cold.rows, "parallel vs serial")

    warm = run_table1_batch(
        benchmarks, worker_count=worker_count, cache=ResultCache(cache_dir)
    )
    assert not warm.failures
    assert warm.batch.hit_rate == 1.0, "warm re-run must be served 100% from cache"
    assert all(result.cached for result in warm.batch.results)
    _assert_rows_identical(serial_rows, warm.rows, "cached vs serial")


def test_fast_subset_serial_parallel_cached_parity(tmp_path):
    benchmarks = [get_benchmark(name) for name in _FAST_SUBSET]
    _differential(benchmarks, tmp_path, worker_count=2)


def test_inline_service_matches_serial(tmp_path):
    # worker_count=0 (the CLI default) must also be row-for-row identical.
    benchmarks = [get_benchmark(name) for name in _FAST_SUBSET[:3]]
    serial_rows = run_table1(benchmarks)
    report = run_table1_batch(benchmarks, worker_count=0)
    assert not report.failures
    _assert_rows_identical(serial_rows, report.rows, "inline service vs serial")


@pytest.mark.slow
def test_all_16_models_serial_parallel_cached_parity(tmp_path):
    """The full-suite pin: all 16 bundled models, three execution paths."""
    _differential(BENCHMARKS, tmp_path, worker_count=2)
