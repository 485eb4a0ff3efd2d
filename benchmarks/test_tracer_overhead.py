"""Tracer overhead: the disabled path must be free, the enabled path cheap.

The observability layer (:mod:`repro.obs`) instruments the saturation hot
path — every iteration enters ``search``/``apply``/``rebuild`` spans — so
the *disabled* tracer (the default) must cost nothing measurable.  The
null tracer hands every call site one shared ``_NullSpan`` whose
``__enter__`` returns ``None``: no allocation, no timestamp, no branch
beyond the context-manager protocol itself.

This benchmark pins that claim with numbers recorded under the
``tracer_overhead`` key of ``BENCH_saturation.json``:

* ``null_span_ns`` — micro-benchmarked cost of one disabled span entry;
* ``disabled_overhead_fraction`` — that cost times the spans an
  end-to-end run would enter, as a fraction of the run's wall time.  This
  is the deterministic "disabled tracing < 2%" gate (the CI bench-smoke
  lane re-checks the recorded value): a per-span timer scaled by the real
  span count is immune to the run-to-run noise that makes a direct
  disabled-vs-disabled wall-clock diff meaningless.
* ``enabled_overhead_ratio`` — interleaved min-of-reps wall clock of a
  fully traced run versus the default run, as the advisory cost of
  turning tracing ON (lenient in-test bound; it is not the gated number).

Both bounds are wall-clock ratios, so they are asserted, like the record
written, only under ``--bench`` (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import time

from repro.benchsuite.suite import get_benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.obs.trace import NULL_TRACER, Tracer


#: Fast, deterministic models; the daemon-smoke subset minus the slow ones.
WORKLOAD = ("sander", "soldering", "hc-bits")
REPS = 3

#: The ISSUE's acceptance bound for tracing-off overhead.
DISABLED_OVERHEAD_CEILING = 0.02
#: Lenient advisory bound for tracing-on (wall clock on shared machines).
ENABLED_RATIO_CEILING = 1.5


def _null_span_seconds(iterations: int = 200_000) -> float:
    """Seconds per disabled-span entry (enter + exit of the shared null span)."""
    span = NULL_TRACER.span  # the exact attribute lookup call sites pay
    start = time.perf_counter()
    for _ in range(iterations):
        with span("x"):
            pass
    return (time.perf_counter() - start) / iterations


def _run_workload(tracer) -> float:
    start = time.perf_counter()
    for name in WORKLOAD:
        benchmark = get_benchmark(name)
        config = SynthesisConfig(cost_function=benchmark.cost_function)
        synthesize(benchmark.build(), config, tracer=tracer)
    return time.perf_counter() - start


def test_disabled_tracer_overhead_is_negligible(bench, bench_record):
    # How many spans would an end-to-end traced run of this workload enter?
    spans_per_run = 0
    for name in WORKLOAD:
        benchmark = get_benchmark(name)
        tracer = Tracer()
        config = SynthesisConfig(cost_function=benchmark.cost_function)
        synthesize(benchmark.build(), config, tracer=tracer)
        assert tracer.open_spans == 0
        spans_per_run += len(tracer.export())
    assert spans_per_run > 0

    # Interleave disabled/enabled reps so machine drift hits both equally.
    disabled_times, enabled_times = [], []
    for _ in range(REPS):
        disabled_times.append(_run_workload(None))  # the default path
        enabled_times.append(_run_workload(Tracer()))
    disabled_seconds = min(disabled_times)
    enabled_seconds = min(enabled_times)

    null_span_seconds = _null_span_seconds()
    disabled_overhead_fraction = spans_per_run * null_span_seconds / disabled_seconds
    enabled_overhead_ratio = enabled_seconds / disabled_seconds

    bench_record(
        {
            "tracer_overhead": {
                "workload": list(WORKLOAD),
                "reps": REPS,
                "spans_per_run": spans_per_run,
                "null_span_ns": null_span_seconds * 1e9,
                "disabled_seconds": disabled_seconds,
                "enabled_seconds": enabled_seconds,
                "disabled_overhead_fraction": disabled_overhead_fraction,
                "enabled_overhead_ratio": enabled_overhead_ratio,
            }
        }
    )

    if not bench:
        return
    # The gated claim: with tracing off (the default), the instrumentation's
    # total cost is under 2% of end-to-end wall time.
    assert disabled_overhead_fraction < DISABLED_OVERHEAD_CEILING, (
        f"disabled tracer costs {disabled_overhead_fraction:.2%} "
        f"({spans_per_run} spans x {null_span_seconds * 1e9:.0f}ns "
        f"over {disabled_seconds:.3f}s)"
    )
    # Advisory: even fully enabled, tracing must not dominate the pipeline.
    assert enabled_overhead_ratio < ENABLED_RATIO_CEILING, (
        f"enabled tracing ratio {enabled_overhead_ratio:.3f} "
        f"(disabled {disabled_seconds:.3f}s, enabled {enabled_seconds:.3f}s)"
    )
