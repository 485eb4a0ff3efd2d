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
import sys
import tempfile
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from repro.benchsuite.models import linear_array
from repro.core.config import SynthesisConfig
from repro.csg.build import cube, translate, union_all, unit
from repro.csg.pretty import format_term
from repro.lang.canon import canonical_term_text
from repro.obs import read_trace_jsonl, validate_spans
from repro.service import ResultCache, SynthesisDaemon
from repro.service import daemon as daemon_module
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

    def test_a_term_without_canonical_text_is_one_failed_job(self, daemon_factory):
        # inf, nan and 1e400 parse as floats, but no key can be derived from
        # a non-finite literal: each job fails alone, its slot is freed, and
        # the connection keeps serving.
        daemon = daemon_factory()
        with DaemonClient(daemon.socket_path) as client:
            for literal in ("inf", "nan", "1e400"):
                (bad,) = client.submit_and_wait(
                    [{"name": literal, "term": f"(Translate {literal} 0 0 Cube)"}]
                )
                assert bad["status"] == "failed"
                assert f"non-finite number {float(literal)!r}" in bad["error"]
                assert client.health()["pending"] == 0
                (fine,) = client.submit_and_wait([{"name": "fine", "term": _chain_text(3)}])
                assert fine["status"] == "succeeded"
            health = client.health()
        assert health["jobs"]["failed"] == 3 and health["pending"] == 0

    def test_a_450_part_array_gets_a_typed_answer(self, daemon_factory):
        model = linear_array(450, (3, 0, 0), cube())
        daemon = daemon_factory(worker_count=1)
        with DaemonClient(daemon.socket_path) as client:
            (result,) = client.submit_and_wait(
                [{"name": "long", "term": canonical_term_text(model), "timeout": 1.0}]
            )
            assert result["status"] in ("succeeded", "timeout"), result
            assert client.health()["pending"] == 0

    def test_invalid_config_fails_at_admission(self, daemon_factory):
        daemon = daemon_factory()
        specs = [
            {"name": "k0", "term": _chain_text(3), "config": {"top_k": 0}},
            # A retired knob at any value but its fixed one.
            {"name": "no-li", "term": _chain_text(3), "config": {"enable_loop_inference": False}},
        ]
        with DaemonClient(daemon.socket_path) as client:
            results = client.submit_and_wait(specs)
            health = client.health()
        assert [result["status"] for result in results] == ["failed", "failed"]
        assert "top_k" in results[0]["error"]
        assert "enable_loop_inference" in results[1]["error"]
        # No worker ever ran either job.
        assert health["workers"]["completed"] == 0

    def test_unrunnable_timeout_fails_at_admission(self, daemon_factory):
        # json.loads accepts Infinity and NaN, so a frame can carry them.
        # The client timeout turns a wedged pool into a failure, not a hang.
        daemon = daemon_factory(worker_count=1)
        spec = {"name": "inf", "term": _chain_text(3), "timeout": float("inf")}
        with DaemonClient(daemon.socket_path, timeout=30.0) as client:
            (result,) = client.submit_and_wait([spec])
            (later,) = client.submit_and_wait([{"name": "c3", "term": _chain_text(3)}])
        assert result["status"] == "failed"
        assert "timeout" in result["error"]
        assert later["status"] == "succeeded"

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0.0, -1.0])
    def test_unrunnable_default_timeout_is_rejected(self, sock_dir, timeout):
        with pytest.raises(ValueError, match="timeout"):
            SynthesisDaemon(sock_dir / "d.sock", default_timeout=timeout)

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

    @pytest.mark.parametrize("case", ["follower", "hit", "distinct"])
    def test_generated_ids_skip_ids_in_use(self, daemon_factory, sock_dir, case):
        # On a fresh daemon the first generated id is "d1:job-0"; a frame
        # that also claims it explicitly must still get two distinct ids.
        daemon = daemon_factory(cache=ResultCache(sock_dir / "cache"))
        first, second = _chain_text(3), _chain_text(3 if case != "distinct" else 4)
        with DaemonClient(daemon.socket_path, timeout=60) as client:
            if case == "hit":
                client.submit_and_wait([{"id": "warm", "term": first}])
            accepted = client.submit([{"term": first}, {"id": "d1:job-0", "term": second}])
            job_ids = accepted["job_ids"]
            assert len(set(job_ids)) == 2 and job_ids[1] == "d1:job-0"
            results = client.wait_for(job_ids)
            assert all(results[job_id]["status"] == "succeeded" for job_id in job_ids)
            (later,) = client.submit_and_wait([{"name": "later", "term": _chain_text(5)}])
            assert later["status"] == "succeeded" and not later["cached"]
            stats = client.stats()
        assert stats["pending"] == 0 and stats["in_flight_keys"] == 0

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

    def test_stats_show_what_each_hit_cost(self, daemon_factory, sock_dir):
        # A hit is answered from the result the miss stored: the exact hit
        # derives no semantic key, and no hit decodes a payload.
        daemon = daemon_factory(cache=ResultCache(sock_dir / "cache"))
        respelled = union_all([translate(2.0 * (i + 1), 0.0, 0.0, unit()) for i in (2, 1, 0)])
        frames = {}
        with DaemonClient(daemon.socket_path) as client:
            for name, text in [
                ("cold", _chain_text(3)),
                ("exact", _chain_text(3)),
                ("semantic", format_term(respelled)),
            ]:
                (frames[name],) = client.submit_and_wait([{"name": name, "term": text}])
                if name == "cold":
                    after_miss = client.stats()
            stats = client.stats()
        assert [frames[name].get("cache_tier") for name in frames] == [None, "exact", "semantic"]
        assert after_miss["jobs"]["semantic_keys"] == 1
        assert stats["jobs"]["semantic_keys"] == 2
        assert stats["cache"]["decodes"] == 0
        assert frames["cold"]["result"] == frames["exact"]["result"] == frames["semantic"]["result"]

    def test_a_disk_hit_decodes_once(self, daemon_factory, sock_dir):
        from repro.service import SynthesisJob, SynthesisService

        directory = sock_dir / "cache"
        (written,) = SynthesisService(cache=ResultCache(directory)).run_batch(
            [SynthesisJob(name="c3", term=_chain(3))]
        ).results
        daemon = daemon_factory(cache=ResultCache(directory))
        with DaemonClient(daemon.socket_path) as client:
            hits = [
                client.submit_and_wait([{"name": "c3", "term": _chain_text(3)}])[0]
                for _ in range(3)
            ]
            stats = client.stats()
        assert all(hit["cached"] and hit["cache_tier"] == "exact" for hit in hits)
        assert stats["cache"]["disk_hits"] == 1 and stats["cache"]["memory_hits"] == 2
        assert stats["cache"]["decodes"] == 1 and stats["jobs"]["semantic_keys"] == 0
        assert all(hit["result"] == written.to_dict()["result"] for hit in hits)

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

    def test_batch_and_daemon_share_one_cache(self, daemon_factory, sock_dir):
        from repro.service import SynthesisJob, SynthesisService

        directory = sock_dir / "cache"
        written = SynthesisService(cache=ResultCache(directory)).run_batch(
            [SynthesisJob(name="c3", term=_chain(3))]
        )
        assert not written.failed and written.cache_hits == 0
        daemon = daemon_factory(cache=ResultCache(directory))
        with DaemonClient(daemon.socket_path) as client:
            (from_batch,) = client.submit_and_wait([{"name": "c3", "term": _chain_text(3)}])
            (from_daemon,) = client.submit_and_wait([{"name": "c4", "term": _chain_text(4)}])
        assert from_batch["cached"] and from_batch["cache_tier"] == "exact"
        assert from_daemon["status"] == "succeeded" and not from_daemon["cached"]

        rerun = SynthesisService(cache=ResultCache(directory)).run_batch(
            [SynthesisJob(name="c4", term=_chain(4))]
        )
        (result,) = rerun.results
        assert result.cached and result.cache_tier == "exact"


    def test_concurrent_duplicates_execute_each_key_once(self, daemon_factory, sock_dir):
        # Admission (probe, then join or register the in-flight key) and
        # completion (store, then release the key) are atomic with each
        # other, so however the clients interleave, each distinct input
        # runs exactly once and every other request is a hit or a follower.
        daemon = daemon_factory(worker_count=3, cache=ResultCache(sock_dir / "cache"))
        texts = [_chain_text(n) for n in (2, 3, 4)]
        results, errors = [], []

        def one_client(offset):
            try:
                with DaemonClient(daemon.socket_path, timeout=60) as client:
                    for index in range(4):
                        text = texts[(offset + index) % len(texts)]
                        results.extend(client.submit_and_wait([{"name": "dup", "term": text}]))
            except Exception as exc:  # pragma: no cover - surfaced by assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=one_client, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 24 and all(r["status"] == "succeeded" for r in results)
        with DaemonClient(daemon.socket_path) as client:
            stats = client.stats()
        jobs = stats["jobs"]
        assert stats["pending"] == 0 and stats["in_flight_keys"] == 0
        assert jobs["submitted"] == jobs["completed"] == 24
        assert stats["workers"]["completed"] == len(texts)
        assert stats["cache"]["stores"] == len(texts)
        assert jobs["cache_hits"] + jobs["coalesced"] == 24 - len(texts)
        # Every spelling is exact: one semantic key per exact miss, and
        # every hit is served the result its miss stored.
        assert jobs["semantic_keys"] == stats["cache"]["misses"]
        assert stats["cache"]["decodes"] == 0


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
        daemon = daemon_factory(worker_count=2)
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
        daemon = daemon_factory(worker_count=1, max_pending=1)
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

    def test_drain_waits_for_an_admission_in_progress(self, daemon_factory, monkeypatch):
        # A drain that begins while an admitted frame is still being parsed
        # must not start before that frame's jobs reach the pool.
        daemon = daemon_factory(worker_count=1)
        building = threading.Event()
        real_build = daemon._build_job

        def slow_build(spec, name, job_id):
            building.set()
            time.sleep(0.5)
            return real_build(spec, name, job_id)

        monkeypatch.setattr(daemon, "_build_job", slow_build)
        outcome = {}

        def submit():
            with DaemonClient(daemon.socket_path, timeout=30) as client:
                (outcome["result"],) = client.submit_and_wait(
                    [{"name": "c3", "term": _chain_text(3)}]
                )

        thread = threading.Thread(target=submit)
        thread.start()
        assert building.wait(30)
        daemon.shutdown(drain=True)
        thread.join(30)
        assert not thread.is_alive()
        assert outcome["result"]["status"] == "succeeded"

    def test_client_that_stops_reading_does_not_hold_up_shutdown(
        self, daemon_factory, monkeypatch
    ):
        # A 4 MB id makes the "accepted" frame overflow the socket buffer of
        # a client that never reads; the bounded send lets the admission end.
        monkeypatch.setattr(daemon_module, "_SEND_TIMEOUT", 1)
        daemon = daemon_factory(worker_count=1)
        stuck = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        stuck.connect(daemon.socket_path)
        stopper = threading.Thread(target=daemon.shutdown)
        try:
            send_frame(
                stuck,
                {"type": "submit", "jobs": [{"id": "x" * (4 << 20), "term": _chain_text(2)}]},
            )
            with DaemonClient(daemon.socket_path) as bystander:
                deadline = time.monotonic() + 30
                while bystander.health()["pending"] == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            stopper.start()
            stopper.join(30)
            assert not stopper.is_alive()
            assert not Path(daemon.socket_path).exists()
        finally:
            stuck.close()
            if stopper.is_alive():
                stopper.join()

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
