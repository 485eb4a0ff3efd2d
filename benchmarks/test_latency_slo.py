"""End-to-end latency SLO over the daemon-smoke workload.

Runs a real :class:`SynthesisDaemon` on a Unix socket, submits the CI
daemon-smoke model subset twice (cold, then warm — the second pass must be
served from the shared cache), and reads the daemon's ``stats`` frame: the
span-fed latency histograms must report non-zero per-phase percentiles,
and the end-to-end p95 must sit inside the SLO budget.

The measured numbers land under the ``latency_slo`` key of
``BENCH_saturation.json``; the CI bench-smoke gate re-checks
``e2e_p95_seconds <= slo_seconds`` from the recorded artifact.  The SLO
budget is deliberately generous (shared runners), but it is a *hard
ceiling* under ``--bench`` (see ``benchmarks/conftest.py``): a pipeline
regression that pushes single-model synthesis past it fails both this test
and the CI gate.  Without ``--bench`` the test checks only the daemon's
answers and its latency series, and records nothing.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.benchsuite.suite import get_benchmark
from repro.csg.pretty import format_term
from repro.service import ResultCache, SynthesisDaemon
from repro.service.protocol import DaemonClient


#: The CI daemon-smoke subset (fast, deterministic models).
WORKLOAD = ("sander", "soldering", "hc-bits", "relay-box", "compose")

#: Per-job end-to-end p95 budget, generous enough for shared CI runners
#: yet far below where a synthesis-pipeline regression would land.
SLO_SECONDS = 30.0

#: Every fresh job must run these phases; their percentiles must be non-zero.
REQUIRED_PHASES = ("job", "parse", "saturate", "extract", "determinize")


@pytest.fixture
def sock_dir():
    path = Path(tempfile.mkdtemp(prefix="szslo.", dir="/tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_daemon_smoke_workload_meets_latency_slo(sock_dir, bench, bench_record):
    specs = [
        {"name": name, "term": format_term(get_benchmark(name).build())}
        for name in WORKLOAD
    ]
    daemon = SynthesisDaemon(
        sock_dir / "d.sock",
        worker_count=2,
        cache=ResultCache(sock_dir / "cache"),
    )
    daemon.start()
    try:
        with DaemonClient(daemon.socket_path, timeout=300.0) as client:
            cold = client.submit_and_wait(specs)
            warm = client.submit_and_wait(specs)
            stats = client.stats()
    finally:
        daemon.shutdown(drain=False)

    assert all(r["status"] == "succeeded" for r in cold), cold
    assert all(r["status"] == "succeeded" for r in warm), warm
    assert all(r["cached"] for r in warm), warm

    latency = stats["latency"]
    assert latency["jobs"]["count"] == 2 * len(WORKLOAD)

    phases = latency["phases"]
    for phase in REQUIRED_PHASES:
        assert phase in phases, f"missing phase series: {phase}"
        assert phases[phase]["count"] >= len(WORKLOAD)
        assert phases[phase]["p50"] > 0.0
        assert phases[phase]["p95"] > 0.0
    # The warm pass hit the cache, so the cache tiers split fresh vs served.
    assert latency["cache_tiers"]["fresh"]["count"] == len(WORKLOAD)
    served = sum(
        stats_["count"]
        for tier, stats_ in latency["cache_tiers"].items()
        if tier != "fresh"
    )
    assert served == len(WORKLOAD)

    e2e_p95 = latency["jobs"]["p95"]
    bench_record(
        {
            "latency_slo": {
                "workload": list(WORKLOAD),
                "jobs": latency["jobs"]["count"],
                "e2e_p50_seconds": latency["jobs"]["p50"],
                "e2e_p95_seconds": e2e_p95,
                "e2e_p99_seconds": latency["jobs"]["p99"],
                "slo_seconds": SLO_SECONDS,
                "phase_p95_seconds": {
                    phase: phases[phase]["p95"] for phase in REQUIRED_PHASES
                },
            }
        }
    )

    if bench:
        assert e2e_p95 <= SLO_SECONDS, (
            f"end-to-end p95 {e2e_p95:.3f}s exceeds the {SLO_SECONDS:.0f}s SLO"
        )
