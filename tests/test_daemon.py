"""Integration tests for the resident synthesis daemon.

Each test runs a real :class:`SynthesisDaemon` on a Unix-domain socket
(under ``/tmp`` — AF_UNIX paths are length-limited, so pytest's deep
``tmp_path`` cannot host them) and talks to it through real sockets,
exercising the properties the daemon exists for: concurrent clients on one
warm engine, cross-request cache hits (exact and semantic), in-flight
coalescing, frame-level admission control, crash/ malformed-input
containment per connection, and graceful drain.
"""

import errno
import gc
import multiprocessing
import os
import shutil
import socket as socket_module
import struct
import tempfile
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from repro.core.config import SynthesisConfig
from repro.csg.build import translate, union_all, unit
from repro.csg.pretty import format_term
from repro.obs import read_trace_jsonl, validate_spans
from repro.service import ResultCache, SynthesisDaemon
from repro.service.protocol import (
    DaemonClient,
    DaemonError,
    recv_frame,
    send_frame,
)

_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/stall injection relies on fork inheriting the monkeypatch",
)


def _chain(n: int, step: float = 2.0):
    """A small flat union chain (fast to synthesize)."""
    return union_all([translate(step * (i + 1), 0.0, 0.0, unit()) for i in range(n)])


def _chain_text(n: int) -> str:
    return format_term(_chain(n))


@pytest.fixture
def sock_dir():
    path = Path(tempfile.mkdtemp(prefix="szd.", dir="/tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def daemon_factory(sock_dir):
    """Start daemons on short socket paths; force-stop any left at teardown."""
    daemons = []

    def make(**kwargs):
        kwargs.setdefault("worker_count", 2)
        daemon = SynthesisDaemon(sock_dir / f"d{len(daemons)}.sock", **kwargs)
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield make
    for daemon in daemons:
        daemon.shutdown(drain=False)


class TestDaemonBasics:
    def test_submit_roundtrip(self, daemon_factory):
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            (result,) = client.submit_and_wait(
                [{"name": "c3", "term": _chain_text(3)}]
            )
        assert result["status"] == "succeeded"
        assert not result["cached"]
        assert result["result"]["best_cost"] is not None

    def test_health_and_unknown_request_type(self, daemon_factory):
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            health = client.health()
            assert health["ok"] and not health["draining"]
            assert health["workers"]["alive"] == 2
            error = client.request({"type": "frobnicate"})
            assert error["type"] == "error" and "unknown" in error["error"]
            # A well-formed but unknown request does NOT cost the connection.
            assert client.health()["ok"]

    def test_unparseable_spec_is_one_failed_job_not_a_dead_daemon(
        self, daemon_factory
    ):
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            results = client.submit_and_wait(
                [
                    {"name": "garbage", "term": "(((not csg"},
                    {"name": "fine", "term": _chain_text(3)},
                ]
            )
        by_name = {r["name"]: r for r in results}
        assert by_name["garbage"]["status"] == "failed"
        assert by_name["fine"]["status"] == "succeeded"

    def test_invalid_config_fails_at_admission(self, daemon_factory):
        daemon = daemon_factory()
        spec = {"name": "k0", "term": _chain_text(3), "config": {"top_k": 0}}
        with DaemonClient(daemon.socket_path) as client:
            (result,) = client.submit_and_wait([spec])
            health = client.health()
        assert result["status"] == "failed"
        assert "top_k" in result["error"]
        # No worker ever ran the job.
        assert health["workers"]["completed"] == 0

    def test_failed_connect_closes_its_socket(self, sock_dir):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                DaemonClient(sock_dir / "absent.sock", timeout=1.0)
            except OSError:
                pass
            else:
                pytest.fail("connecting to a missing socket file succeeded")
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]

    def test_duplicate_explicit_ids_rejected_at_the_frame(self, daemon_factory):
        daemon = daemon_factory()
        spec = {"name": "x", "term": _chain_text(2), "id": "same"}
        with DaemonClient(daemon.socket_path) as client:
            with pytest.raises(DaemonError, match="duplicate job ids"):
                client.submit([spec, dict(spec)])
            # Nothing was admitted: the daemon still serves this connection.
            health = client.health()
            assert health["pending"] == 0
            assert health["jobs"]["rejected"] == 2

    def test_concurrent_clients_share_one_daemon(self, daemon_factory):
        daemon = daemon_factory(worker_count=2)
        outcomes = {}
        errors = []

        def one_client(n):
            try:
                with DaemonClient(daemon.socket_path) as client:
                    (result,) = client.submit_and_wait(
                        [{"name": f"c{n}", "term": _chain_text(n)}]
                    )
                    outcomes[n] = result
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(n,)) for n in (2, 3, 4, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert sorted(outcomes) == [2, 3, 4, 5]
        assert all(r["status"] == "succeeded" for r in outcomes.values())
        with DaemonClient(daemon.socket_path) as client:
            health = client.health()
        assert health["jobs"]["submitted"] == 4
        assert health["jobs"]["succeeded"] == 4


class TestDaemonCache:
    def test_cross_connection_exact_and_semantic_hits(self, daemon_factory, sock_dir):
        daemon = daemon_factory(cache=ResultCache(sock_dir / "cache"))
        cold_text = _chain_text(3)
        # Same model, different spelling: reversed commutative operands and
        # integer-spelled literals — byte-different, semantically equal.
        respelled = union_all(
            [translate(float(2 * (i + 1)), 0.0, 0.0, unit()) for i in (2, 1, 0)]
        )
        respelled_text = format_term(respelled)
        assert respelled_text != cold_text

        with DaemonClient(daemon.socket_path) as client:
            (cold,) = client.submit_and_wait([{"name": "cold", "term": cold_text}])
        with DaemonClient(daemon.socket_path) as client:
            (exact,) = client.submit_and_wait([{"name": "warm", "term": cold_text}])
        with DaemonClient(daemon.socket_path) as client:
            (semantic,) = client.submit_and_wait(
                [{"name": "respelled", "term": respelled_text}]
            )
            health = client.health()

        assert not cold["cached"]
        assert exact["cached"] and exact["cache_tier"] == "exact"
        assert semantic["cached"] and semantic["cache_tier"] == "semantic"
        # All three spellings report the same synthesis headline.
        assert (
            cold["result"]["best_cost"]
            == exact["result"]["best_cost"]
            == semantic["result"]["best_cost"]
        )
        assert health["jobs"]["exact_hits"] == 1
        assert health["jobs"]["semantic_hits"] == 1

    def test_duplicates_within_one_submission_coalesce(self, daemon_factory):
        daemon = daemon_factory()
        text = _chain_text(3)
        with DaemonClient(daemon.socket_path) as client:
            results = client.submit_and_wait(
                [
                    {"name": "primary", "term": text},
                    {"name": "twin", "term": text},
                ]
            )
            health = client.health()
        by_name = {r["name"]: r for r in results}
        assert not by_name["primary"]["cached"]
        assert by_name["twin"]["cached"]
        assert by_name["twin"]["cache_tier"] == "batch"
        assert by_name["twin"]["result"] == by_name["primary"]["result"]
        assert health["jobs"]["coalesced"] == 1
        # Only the primary reached the workers.
        assert health["workers"]["completed"] == 1


class TestDaemonIsolation:
    @_FORK
    def test_mid_job_worker_crash_leaves_the_daemon_serving(
        self, daemon_factory, monkeypatch
    ):
        import repro.service.worker as worker_module

        real = worker_module.execute_payload

        def die_on_crasher(payload):
            if payload["name"] == "crasher":
                os._exit(13)
            return real(payload)

        monkeypatch.setattr(worker_module, "execute_payload", die_on_crasher)
        daemon = daemon_factory(worker_count=2, start_method="fork")
        with DaemonClient(daemon.socket_path) as client:
            results = client.submit_and_wait(
                [
                    {"name": "crasher", "term": _chain_text(2)},
                    {"name": "survivor", "term": _chain_text(3)},
                ]
            )
            by_name = {r["name"]: r for r in results}
            assert by_name["crasher"]["status"] == "failed"
            assert "died without reporting" in by_name["crasher"]["error"]
            assert by_name["survivor"]["status"] == "succeeded"
            # The dead worker was replaced and the daemon still takes work.
            health = client.health()
            assert health["workers"]["crashes"] == 1
            assert health["workers"]["respawns"] == 1
            assert health["workers"]["alive"] == 2
            (after,) = client.submit_and_wait(
                [{"name": "after", "term": _chain_text(4)}]
            )
            assert after["status"] == "succeeded"

    def test_malformed_frame_costs_only_that_connection(self, daemon_factory):
        daemon = daemon_factory()
        bystander = DaemonClient(daemon.socket_path)
        try:
            raw = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
            raw.settimeout(10)
            raw.connect(daemon.socket_path)
            # A length prefix far beyond the protocol maximum: framing gone.
            raw.sendall(struct.pack(">I", 0xFFFFFFFF) + b"junk")
            answer = recv_frame(raw)
            assert answer["type"] == "error"
            assert "malformed frame" in answer["error"]
            # ... and the daemon hangs up on the torn stream.  Depending on
            # whether our junk bytes were still unread at close time the
            # kernel reports that as a clean EOF or a reset — both are "gone".
            try:
                leftover = raw.recv(1)
            except OSError:
                leftover = b""
            assert leftover == b""
            raw.close()
            # The bystander's connection is untouched.
            health = bystander.health()
            assert health["ok"]
            assert health["jobs"]["protocol_errors"] == 1
        finally:
            bystander.close()

    @_FORK
    def test_admission_control_rejects_beyond_max_pending(
        self, daemon_factory, monkeypatch
    ):
        import repro.service.worker as worker_module

        def stall(payload):
            time.sleep(30.0)
            return {  # pragma: no cover - killed before reporting
                "job_id": payload["job_id"],
                "name": payload["name"],
                "status": "failed",
                "seconds": 30.0,
                "error": "stalled",
            }

        monkeypatch.setattr(worker_module, "execute_payload", stall)
        daemon = daemon_factory(
            worker_count=1, max_pending=1, start_method="fork"
        )
        with DaemonClient(daemon.socket_path) as client:
            accepted = client.submit(
                [{"name": "hog", "term": _chain_text(2)}], wait=False
            )
            assert len(accepted["job_ids"]) == 1
            with pytest.raises(DaemonError, match="admission control"):
                client.submit([{"name": "surplus", "term": _chain_text(3)}])
            # The rejection is observable but cost the daemon nothing.
            health = client.health()
            assert health["pending"] == 1
            assert health["jobs"]["rejected"] == 1
        daemon.shutdown(drain=False)

    def test_failed_cache_write_still_answers_and_serves(
        self, daemon_factory, sock_dir, monkeypatch
    ):
        # A full disk under the cache must cost neither the waiting client
        # nor the next job: the entry is kept in the memory tier only.
        def full_disk(path, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        daemon = daemon_factory(cache=ResultCache(sock_dir / "cache"))
        with DaemonClient(daemon.socket_path, timeout=20) as client:
            (first,) = client.submit_and_wait([{"name": "c3", "term": _chain_text(3)}])
            (second,) = client.submit_and_wait([{"name": "c4", "term": _chain_text(4)}])
            (again,) = client.submit_and_wait([{"name": "c3", "term": _chain_text(3)}])
        assert first["status"] == "succeeded" and second["status"] == "succeeded"
        assert again["cached"] and again["cache_tier"] == "exact"

    def test_disconnected_client_does_not_sink_its_job(self, daemon_factory, sock_dir):
        daemon = daemon_factory(cache=ResultCache(sock_dir / "cache"))
        text = _chain_text(3)
        with DaemonClient(daemon.socket_path) as client:
            client.submit([{"name": "orphan", "term": text}], wait=True)
            # Hang up before the result frame arrives.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with DaemonClient(daemon.socket_path) as client:
                if client.health()["pending"] == 0:
                    break
            time.sleep(0.05)
        # The orphaned job completed and seeded the shared cache.
        with DaemonClient(daemon.socket_path) as client:
            (warm,) = client.submit_and_wait([{"name": "warm", "term": text}])
        assert warm["cached"] and warm["cache_tier"] == "exact"


class TestDaemonObservability:
    def test_stats_frame_carries_per_phase_percentiles(self, daemon_factory):
        """With job tracing on (the default) the stats frame's ``latency``
        section reports non-zero exact-rank percentiles per phase."""
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            results = client.submit_and_wait(
                [{"name": f"c{n}", "term": _chain_text(n)} for n in (3, 4)]
            )
            assert all(r["status"] == "succeeded" for r in results)
            stats = client.stats()

        assert stats["trace_jobs"] is True
        latency = stats["latency"]
        assert latency["jobs"]["count"] == 2
        assert latency["jobs"]["p50"] > 0.0
        assert latency["spans_ingested"] > 0

        phases = latency["phases"]
        for phase in ("job", "parse", "saturate", "extract", "determinize"):
            assert phase in phases, f"missing phase series: {phase}"
            assert phases[phase]["count"] >= 2
            for quantile in ("p50", "p95", "p99"):
                assert phases[phase][quantile] > 0.0
        # Percentiles are monotone within each series.
        for series in phases.values():
            assert series["p50"] <= series["p95"] <= series["p99"]
        # Per-model series exist for both fresh jobs.
        assert set(latency["models"]) == {"c3", "c4"}
        assert latency["cache_tiers"]["fresh"]["count"] == 2

    def test_cache_hits_feed_their_own_tier_series(self, daemon_factory, sock_dir):
        daemon = daemon_factory(cache=ResultCache(sock_dir / "cache"))
        text = _chain_text(3)
        with DaemonClient(daemon.socket_path) as client:
            client.submit_and_wait([{"name": "cold", "term": text}])
            (warm,) = client.submit_and_wait([{"name": "warm", "term": text}])
            stats = client.stats()
        assert warm["cached"] and warm["cache_tier"] == "exact"
        tiers = stats["latency"]["cache_tiers"]
        assert tiers["fresh"]["count"] == 1
        assert tiers["exact"]["count"] == 1
        # A cache lookup is faster than a fresh synthesis run.
        assert tiers["exact"]["mean"] < tiers["fresh"]["mean"]

    def test_trace_path_writes_wellformed_span_trees(self, daemon_factory, sock_dir):
        trace_path = sock_dir / "trace.jsonl"
        daemon = daemon_factory(trace_path=trace_path)
        with DaemonClient(daemon.socket_path) as client:
            results = client.submit_and_wait(
                [{"name": f"c{n}", "term": _chain_text(n)} for n in (2, 3)]
            )
        assert all(r["status"] == "succeeded" for r in results)
        records = read_trace_jsonl(trace_path)
        assert records, "trace_path produced no spans"

        by_job = defaultdict(list)
        for record in records:
            assert record["model"] in {"c2", "c3"}
            by_job[record["job_id"]].append(record)
        assert len(by_job) == 2
        for job_id, spans in by_job.items():
            assert validate_spans(spans) == [], f"malformed tree for {job_id}"
            roots = [s for s in spans if s.get("parent_id") is None]
            assert len(roots) == 1 and roots[0]["name"] == "job"
            # Spans account for >= 95% of the job's wall time (the ISSUE's
            # coverage floor): direct children sum to nearly the root.
            root = roots[0]
            child_total = sum(
                s["duration"] for s in spans if s.get("parent_id") == root["span_id"]
            )
            assert child_total >= 0.95 * root["duration"]

    def test_tracing_disabled_still_reports_end_to_end_latency(self, daemon_factory):
        daemon = daemon_factory(trace_jobs=False)
        with DaemonClient(daemon.socket_path) as client:
            (result,) = client.submit_and_wait([{"name": "c3", "term": _chain_text(3)}])
            stats = client.stats()
        assert result["status"] == "succeeded"
        assert stats["trace_jobs"] is False
        latency = stats["latency"]
        # End-to-end and per-model series still populate; phases need spans.
        assert latency["jobs"]["count"] == 1
        assert latency["jobs"]["p50"] > 0.0
        assert latency["phases"] == {}
        assert latency["spans_ingested"] == 0


class TestDaemonShutdown:
    def test_shutdown_frame_drains_and_removes_the_socket(self, daemon_factory):
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            assert client.shutdown()["type"] == "ok"
        daemon.serve_forever()  # returns once the drain completes
        assert not Path(daemon.socket_path).exists()
        with pytest.raises(OSError):
            DaemonClient(daemon.socket_path)

    def test_graceful_drain_delivers_outstanding_results(self, daemon_factory):
        daemon = daemon_factory(worker_count=1)
        with DaemonClient(daemon.socket_path) as client:
            accepted = client.submit(
                [{"name": f"c{n}", "term": _chain_text(n)} for n in (3, 4, 5)],
                wait=True,
            )
            # Shutdown lands while jobs are queued/running on one worker;
            # drain=True must finish them and push every result frame.
            daemon.shutdown(drain=True)
            results = client.wait_for(accepted["job_ids"])
        assert len(results) == 3
        assert all(r["status"] == "succeeded" for r in results.values())
        assert not Path(daemon.socket_path).exists()

    def test_submissions_during_drain_are_rejected(self, daemon_factory):
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            client.health()
            daemon.shutdown(drain=True)
            # The daemon closed every client connection on its way out.
            with pytest.raises((DaemonError, OSError)):
                client.submit([{"name": "late", "term": _chain_text(2)}])

    def test_raising_callback_still_lets_the_daemon_stop(
        self, daemon_factory, monkeypatch
    ):
        class Boom(Exception):
            pass

        def explode(event):
            raise Boom(event.name)

        daemon = daemon_factory(worker_count=1)
        monkeypatch.setattr(daemon, "_on_event", explode)
        with DaemonClient(daemon.socket_path, timeout=20) as client:
            (result,) = client.submit_and_wait(
                [{"name": "c3", "term": _chain_text(3)}]
            )
        # The callback force-stopped the fleet; the job is failed, not lost.
        assert result["status"] == "failed"
        with pytest.raises(Boom):
            daemon.shutdown()
        daemon.serve_forever()  # returns: the shutdown still completed
        assert not Path(daemon.socket_path).exists()
