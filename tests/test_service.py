"""Unit tests for the batch synthesis service.

Covers the pieces individually — picklable results, the two-tier
content-addressed cache, the priority queue — and the orchestration
behaviors the subsystem exists for: process-parallel execution with per-job
failure isolation (exceptions, worker crashes, hard timeouts) and
cache-aware re-runs.
"""

import errno
import json
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.benchsuite.models import gear_model
from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.benchsuite.table1 import row_from_result
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisResult, synthesize
from repro.csg.build import scale, translate, union_all, unit
from repro.lang.term import Term
from repro.verify.validate import validate_synthesis
from repro.service import (
    JobQueue,
    JobResult,
    JobStatus,
    ResidentPool,
    ResultCache,
    SynthesisJob,
    SynthesisService,
    cache_key,
    run_jobs_inline,
)


def _chain(n: int, step: float = 2.0):
    """A small flat union chain (fast to synthesize)."""
    return union_all([translate(step * (i + 1), 0.0, 0.0, unit()) for i in range(n)])


#: A config that constructs fine but makes ``synthesize`` raise (the rule
#: category is looked up only when the run starts): the in-worker failure.
_FAILING_CONFIG = SynthesisConfig(rule_categories=("no-such",))

#: What ``SynthesisResult.to_dict`` stores: the answer, not the diagnostics.
_ANSWER_KEYS = {"input_term", "candidates", "seconds", "config"}


def _parent_format(result: SynthesisResult) -> dict:
    """The payload older versions stored: the answer plus the run's diagnostics.

    Every per-iteration counter is included, as are the three that parallel
    search used to write.
    """
    payload = result.to_dict()
    payload["inference_records"] = [asdict(record) for record in result.inference_records]
    payload["run_reports"] = [
        {
            "stop_reason": report.stop_reason.value,
            "seconds": report.seconds,
            "iterations": [
                {
                    **asdict(iteration),
                    "parallel_search_epochs": 0,
                    "fallback_epochs": 0,
                    "partition_seconds": [],
                }
                for iteration in report.iterations
            ],
        }
        for report in result.run_reports
    ]
    payload["extract_seconds"] = result.extract_seconds
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------------------
# Picklability / serialization of results (the worker-boundary contract)
# ---------------------------------------------------------------------------


class TestResultSerialization:
    def test_terms_pickle_round_trip(self):
        term = _chain(4)
        assert pickle.loads(pickle.dumps(term)) == term

    def test_synthesis_result_pickles(self):
        result = synthesize(_chain(4), SynthesisConfig())
        clone = pickle.loads(pickle.dumps(result))
        assert [c.term for c in clone.candidates] == [c.term for c in result.candidates]
        assert clone.loop_summary() == result.loop_summary()

    def test_to_dict_round_trip_through_json(self):
        result = synthesize(_chain(5), SynthesisConfig())
        payload = json.loads(json.dumps(result.to_dict()))
        clone = SynthesisResult.from_dict(payload)
        assert [c.term for c in clone.candidates] == [c.term for c in result.candidates]
        assert [c.cost for c in clone.candidates] == [c.cost for c in result.candidates]
        assert clone.input_term == result.input_term
        assert clone.loop_summary() == result.loop_summary()
        assert clone.function_summary() == result.function_summary()
        assert clone.structured_rank() == result.structured_rank()
        assert clone.size_reduction() == result.size_reduction()
        assert clone.config == result.config
        # Stability: serializing the clone reproduces the same payload.
        assert clone.to_dict() == payload

    def test_to_dict_holds_the_answer_only(self):
        result = synthesize(_chain(5), SynthesisConfig())
        assert result.inference_records and result.run_reports and result.extract_seconds > 0
        payload = result.to_dict()
        assert set(payload) == _ANSWER_KEYS
        clone = SynthesisResult.from_dict(json.loads(json.dumps(payload)))
        assert clone.inference_records == [] and clone.run_reports == []
        assert clone.extract_seconds == 0.0

    @pytest.mark.parametrize("name", [benchmark.name for benchmark in BENCHMARKS])
    def test_round_trip_reproduces_the_table1_answer(self, name):
        benchmark = get_benchmark(name)
        config = SynthesisConfig(cost_function=benchmark.cost_function)
        result = synthesize(benchmark.build(), config)
        clone = SynthesisResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert [(c.rank, c.cost, c.term) for c in clone.candidates] == [
            (c.rank, c.cost, c.term) for c in result.candidates
        ]
        assert row_from_result(benchmark, clone, 1.0) == row_from_result(benchmark, result, 1.0)

        def headline(synthesized):
            return JobResult("j", name, JobStatus.SUCCEEDED, result=synthesized).to_dict()

        assert headline(clone) == headline(result)


# ---------------------------------------------------------------------------
# JobQueue scheduling contract
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_priority_then_fifo(self):
        term = _chain(2)
        jobs = [
            SynthesisJob(name="low-1", term=term, priority=0),
            SynthesisJob(name="high", term=term, priority=10),
            SynthesisJob(name="low-2", term=term, priority=0),
            SynthesisJob(name="mid", term=term, priority=5),
        ]
        queue = JobQueue(jobs)
        assert [job.name for job in queue.drain()] == ["high", "mid", "low-1", "low-2"]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            JobQueue().pop()


class TestJobTimeout:
    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0, -1])
    def test_unrunnable_timeout_is_rejected_at_construction(self, timeout):
        # An infinite timeout kills the pool's scheduler thread, a NaN one
        # never expires, and zero or less clamps the fuel to nothing.
        with pytest.raises(ValueError, match="timeout"):
            SynthesisJob(name="c3", term=_chain(3), timeout=timeout)


# ---------------------------------------------------------------------------
# ResultCache: LRU memory tier over a sharded disk tier
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_memory_lru_eviction(self):
        cache = ResultCache(directory=None, memory_capacity=2)
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        cache.put("c" * 64, {"v": 3})  # evicts "a"
        assert cache.lookup("a" * 64)[0] is None
        assert cache.lookup("b" * 64)[0] == {"v": 2}
        assert cache.lookup("c" * 64)[0] == {"v": 3}
        assert cache.misses == 1 and cache.hits == 2

    def test_disk_tier_survives_a_fresh_instance(self, tmp_path):
        key = "d" * 64
        ResultCache(tmp_path).put(key, {"v": 42})
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(key)[0] == {"v": 42}
        assert fresh.disk_hits == 1 and fresh.hit_rate == 1.0
        # Sharded layout: <dir>/<key[:2]>/<key>.json
        assert (tmp_path / key[:2] / f"{key}.json").exists()

    def test_memory_tier_promotes_disk_reads(self, tmp_path):
        key = "e" * 64
        ResultCache(tmp_path).put(key, {"v": 7})
        cache = ResultCache(tmp_path)
        cache.lookup(key)
        cache.lookup(key)
        assert cache.disk_hits == 1 and cache.memory_hits == 1

    def test_corrupt_disk_entry_is_a_miss_and_removed(self, tmp_path):
        key = "f" * 64
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        cache = ResultCache(tmp_path)
        assert cache.lookup(key)[0] is None
        assert not path.exists()

    def test_contains_does_not_touch_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {})
        assert ("a" * 64) in cache and ("b" * 64) not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_failed_disk_write_keeps_the_entry_in_memory(self, tmp_path, monkeypatch):
        real_write_text = Path.write_text

        def full_disk(path, text, *args, **kwargs):
            real_write_text(path, "", *args, **kwargs)  # the temp file is created
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"v": 1}, semantic_key="b" * 64)
        assert cache.lookup("a" * 64)[0] == {"v": 1}
        assert cache.lookup("c" * 64, "b" * 64) == ({"v": 1}, "semantic")
        # Neither the entry nor its semantic pointer left a file behind.
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]


class TestResultCacheEviction:
    #: Every ``{"v": <digit>}`` payload these tests store is this many bytes.
    ENTRY = len(json.dumps({"v": 0}).encode())

    def _keys(self, n):
        return [format(i, "x").rjust(64, "0") for i in range(n)]

    def _set_mtime(self, cache, key, when):
        import os

        os.utime(cache._path(key), (when, when))

    def _budget(self, entries):
        """A byte budget that holds exactly ``entries`` small payloads."""
        return entries * self.ENTRY

    def test_max_bytes_evicts_oldest_mtime_first(self, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0, max_bytes=self._budget(2))
        a, b, c = self._keys(3)
        cache.put(a, {"v": 1})
        cache.put(b, {"v": 2})
        self._set_mtime(cache, a, 1_000)
        self._set_mtime(cache, b, 2_000)
        cache.put(c, {"v": 3})  # over the limit: a (oldest) must go
        assert cache.lookup(a)[0] is None
        assert cache.lookup(b)[0] == {"v": 2}
        assert cache.lookup(c)[0] == {"v": 3}
        assert cache.evictions == 1
        assert cache.disk_entries() == 2

    def test_max_bytes_evicts_until_under_budget(self, tmp_path):
        payload = {"blob": "x" * 512}
        entry_size = len(__import__("json").dumps(payload).encode())
        cache = ResultCache(
            tmp_path, memory_capacity=0, max_bytes=int(entry_size * 2.5)
        )
        keys = self._keys(4)
        for stamp, key in enumerate(keys):
            cache.put(key, payload)
            self._set_mtime(cache, key, 1_000 * (stamp + 1))
        # Budget holds two entries; the two oldest must have been evicted.
        assert cache.disk_entries() == 2
        assert cache.lookup(keys[0])[0] is None and cache.lookup(keys[1])[0] is None
        assert cache.lookup(keys[2])[0] == payload and cache.lookup(keys[3])[0] == payload

    def test_disk_reads_refresh_recency(self, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0, max_bytes=self._budget(2))
        a, b, c = self._keys(3)
        cache.put(a, {"v": 1})
        cache.put(b, {"v": 2})
        self._set_mtime(cache, a, 1_000)
        self._set_mtime(cache, b, 2_000)
        assert cache.lookup(a)[0] == {"v": 1}  # touch: a is now the hot entry
        cache.put(c, {"v": 3})
        assert cache.lookup(a)[0] == {"v": 1}
        assert cache.lookup(b)[0] is None  # b became the LRU entry and was evicted
        assert cache.lookup(c)[0] == {"v": 3}

    def test_fresh_instance_accounts_for_preexisting_entries(self, tmp_path):
        a, b, c = self._keys(3)
        seed = ResultCache(tmp_path, memory_capacity=0)
        seed.put(a, {"v": 1})
        seed.put(b, {"v": 2})
        self._set_mtime(seed, a, 1_000)
        self._set_mtime(seed, b, 2_000)
        bounded = ResultCache(tmp_path, memory_capacity=0, max_bytes=self._budget(2))
        bounded.put(c, {"v": 3})  # 3 entries on disk now: a must be evicted
        assert bounded.disk_entries() == 2
        assert bounded.lookup(a)[0] is None
        assert bounded.lookup(b)[0] == {"v": 2} and bounded.lookup(c)[0] == {"v": 3}

    def test_overwrites_account_for_the_size_delta(self, tmp_path):
        # Regression: an overwrite used to leave the tracked byte usage at
        # the old entry's size, letting the disk tier grow past max_bytes
        # without ever evicting.
        payload = {"blob": "x" * 2048}
        entry_size = len(__import__("json").dumps(payload).encode())
        cache = ResultCache(tmp_path, memory_capacity=0, max_bytes=entry_size + 10)
        (key,) = self._keys(1)
        cache.put(key, {"v": 0})  # tiny entry, well under budget
        for _ in range(3):
            cache.put(key, payload)  # overwrites must track the real size
        # One fat entry fits the budget exactly; usage must reflect it.
        assert cache._disk_usage == entry_size
        other = format(1, "x").rjust(64, "1")
        self._set_mtime(cache, key, 1_000)
        cache.put(other, payload)  # now over budget: the old entry goes
        assert cache.lookup(key)[0] is None
        assert cache.evictions >= 1

    def test_memory_tier_hits_keep_the_disk_entry_hot(self, tmp_path):
        # Regression: memory-tier hits used to leave the disk mtime stale,
        # so the hottest entry was evicted from the bounded disk tier.
        cache = ResultCache(tmp_path, memory_capacity=8, max_bytes=self._budget(2))
        a, b, c = self._keys(3)
        cache.put(a, {"v": 1})
        cache.put(b, {"v": 2})
        self._set_mtime(cache, a, 1_000)
        self._set_mtime(cache, b, 2_000)
        assert cache.lookup(a)[0] == {"v": 1}  # memory hit: must touch disk too
        assert cache.memory_hits == 1
        cache.put(c, {"v": 3})
        fresh = ResultCache(tmp_path)  # no memory tier state
        assert fresh.lookup(a)[0] == {"v": 1}
        assert fresh.lookup(b)[0] is None  # b was the LRU entry

    def test_corrupt_entry_drop_updates_the_usage_accounting(self, tmp_path):
        # Regression: dropping a corrupt entry on read left the tracked
        # usage overcounted, so later puts evicted healthy entries that
        # were actually within the limits.
        cache = ResultCache(tmp_path, memory_capacity=0, max_bytes=self._budget(3))
        a, b, c, d = self._keys(4)
        for stamp, key in enumerate((a, b, c)):
            cache.put(key, {"v": stamp})
            self._set_mtime(cache, key, 1_000 * (stamp + 1))
        # Corrupt the oldest entry, keeping its size.
        cache._path(a).write_text("x" * self.ENTRY)
        assert cache.lookup(a)[0] is None  # dropped, and accounted for
        assert cache._disk_usage == self._budget(2)
        cache.put(d, {"v": 3})  # back at the limit of 3: nothing to evict
        assert cache.evictions == 0
        assert cache.lookup(b)[0] == {"v": 1} and cache.lookup(c)[0] == {"v": 2}
        assert cache.lookup(d)[0] == {"v": 3}

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0)
        for key in self._keys(5):
            cache.put(key, {"v": 0})
        assert cache.evictions == 0 and cache.disk_entries() == 5
        assert cache.stats()["max_bytes"] is None

    def test_stats_expose_limits_and_evictions(self, tmp_path):
        cache = ResultCache(tmp_path, memory_capacity=0, max_bytes=self._budget(1))
        a, b = self._keys(2)
        cache.put(a, {"v": 1})
        self._set_mtime(cache, a, 1_000)
        cache.put(b, {"v": 2})
        stats = cache.stats()
        assert stats["max_bytes"] == self.ENTRY
        assert stats["evictions"] == 1
        assert stats["disk_entries"] == 1


# ---------------------------------------------------------------------------
# Inline execution: error capture and event stream
# ---------------------------------------------------------------------------


class TestInlineExecution:
    def test_failure_is_isolated_and_captured(self):
        jobs = [
            SynthesisJob(name="ok", term=_chain(3)),
            SynthesisJob(
                name="bad", term=_chain(3), config=_FAILING_CONFIG
            ),
        ]
        results = run_jobs_inline(jobs)
        by_name = {r.name: r for r in results.values()}
        assert by_name["ok"].status is JobStatus.SUCCEEDED
        assert by_name["bad"].status is JobStatus.FAILED
        assert "no-such" in by_name["bad"].error
        assert "Traceback" in by_name["bad"].error

    def test_events_follow_priority_order(self):
        events = []
        jobs = [
            SynthesisJob(name="second", term=_chain(2), priority=0),
            SynthesisJob(name="first", term=_chain(2), priority=9),
        ]
        run_jobs_inline(jobs, on_event=events.append)
        assert [(e.kind, e.name) for e in events] == [
            ("start", "first"), ("done", "first"), ("start", "second"), ("done", "second"),
        ]


# ---------------------------------------------------------------------------
# ResidentPool: worker reuse, crash isolation, hard timeouts
# ---------------------------------------------------------------------------

_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash injection relies on fork inheriting the monkeypatch",
)


class Boom(Exception):
    """Raised by a test's event callback."""


def _explode_on_start(event):
    if event.kind == "start":
        raise Boom(event.name)


def _run_on_pool(pool, jobs, on_event=None):
    """Submit jobs to a started pool in order, drain it, return results by name."""
    results = {}

    def on_result(job, result):
        results[job.name] = result

    try:
        for job in jobs:
            pool.submit(job, on_result, on_event)
        pool.shutdown(drain=True, timeout=120)
    finally:
        pool.shutdown(drain=False)
    return results


class TestResidentPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ResidentPool(0)

    def test_results_match_inline_and_workers_are_reused(self):
        jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4, 5, 6)]
        inline = run_jobs_inline(jobs)
        pool = ResidentPool(2).start()
        pooled = _run_on_pool(pool, jobs)
        for job in jobs:
            assert pooled[job.name].status is JobStatus.SUCCEEDED
            assert [c.term for c in pooled[job.name].result.candidates] == [
                c.term for c in inline[job.job_id].result.candidates
            ]
        # 4 jobs over 2 long-lived workers: no per-job process was spawned.
        assert pool.workers_spawned == 2

    def test_worker_exception_is_a_failed_job_without_a_respawn(self):
        jobs = [
            SynthesisJob(
                name="bad", term=_chain(3), config=_FAILING_CONFIG
            ),
            SynthesisJob(name="ok", term=_chain(3)),
        ]
        pool = ResidentPool(2).start()
        by_name = _run_on_pool(pool, jobs)
        assert by_name["bad"].status is JobStatus.FAILED
        assert "no-such" in by_name["bad"].error
        assert by_name["ok"].status is JobStatus.SUCCEEDED
        # An in-worker exception is captured in-process: no respawn needed.
        assert pool.workers_spawned == 2 and pool.respawns == 0

    @_FORK
    def test_dead_worker_is_respawned_and_job_failed(self, monkeypatch):
        import repro.service.worker as worker_module

        real = worker_module.execute_payload

        def die_on_crasher(payload):
            if payload["name"] == "crasher":
                os._exit(13)
            return real(payload)

        monkeypatch.setattr(worker_module, "execute_payload", die_on_crasher)
        jobs = [
            SynthesisJob(name="crasher", term=_chain(2)),
            SynthesisJob(name="survivor", term=_chain(3)),
        ]
        pool = ResidentPool(1).start()
        by_name = _run_on_pool(pool, jobs)
        assert by_name["crasher"].status is JobStatus.FAILED
        assert "exit code 13" in by_name["crasher"].error
        # The dead worker was replaced and the rest of the batch completed.
        assert by_name["survivor"].status is JobStatus.SUCCEEDED
        assert pool.workers_spawned == 2 and pool.crashes == 1

    def test_hard_timeout_kills_and_respawns(self):
        events = []
        jobs = [
            SynthesisJob(name="slow", term=gear_model(), timeout=0.25),
            SynthesisJob(name="quick", term=_chain(3)),
        ]
        pool = ResidentPool(1).start()
        by_name = _run_on_pool(pool, jobs, on_event=events.append)
        assert by_name["slow"].status is JobStatus.TIMEOUT
        assert "timeout" in by_name["slow"].error
        assert by_name["quick"].status is JobStatus.SUCCEEDED
        assert any(e.kind == "timeout" and e.name == "slow" for e in events)
        # The killed worker's replacement ran the remaining job.
        assert pool.workers_spawned == 2 and pool.timeouts == 1

    def test_oserror_on_the_result_pipe_is_a_failed_job(self):
        # A dying worker can tear its pipe down as OSError (ECONNRESET)
        # instead of a clean EOFError; both must collapse to the same
        # "worker died" FAILED result instead of escaping the scheduler.
        pool = ResidentPool(1).start()
        (worker,) = pool._crew

        def reset():
            raise OSError(errno.ECONNRESET, "Connection reset by peer")

        worker.conn.recv = reset
        events = []
        jobs = [
            SynthesisJob(name="reset", term=_chain(2)),
            SynthesisJob(name="next", term=_chain(3)),
        ]
        by_name = _run_on_pool(pool, jobs, on_event=events.append)
        assert by_name["reset"].status is JobStatus.FAILED
        assert "died without reporting" in by_name["reset"].error
        assert any(e.kind == "failed" and e.name == "reset" for e in events)
        assert by_name["next"].status is JobStatus.SUCCEEDED
        assert pool.crashes == 1 and pool.respawns == 1

    def test_job_submitted_after_an_idle_worker_died_is_served(self):
        pool = ResidentPool(1).start()
        try:
            (worker,) = pool._crew
            worker.process.kill()
            worker.process.join(10)
            served = queue_module.Queue()
            pool.submit(
                SynthesisJob(name="c2", term=_chain(2)),
                lambda job, result: served.put(result),
            )
            result = served.get(timeout=15)
        finally:
            pool.shutdown(drain=False)
        assert result.status is JobStatus.SUCCEEDED
        assert pool.crashes == 1 and pool.respawns == 1

    def test_drain_survives_an_idle_worker_death(self):
        pool = ResidentPool(1).start()
        results = {}
        in_callback = threading.Event()
        release = threading.Event()

        def on_result(job, result):
            results[job.name] = result
            if job.name == "first":
                in_callback.set()
                release.wait(30)

        try:
            pool.submit(SynthesisJob(name="first", term=_chain(2)), on_result)
            assert in_callback.wait(30)
            # The scheduler is parked in a callback and its only worker is
            # idle: kill the worker, queue a job and start the drain, so the
            # drain is what finds the dead worker.
            (worker,) = pool._crew
            worker.process.kill()
            worker.process.join(10)
            pool.submit(SynthesisJob(name="second", term=_chain(3)), on_result)
            pool.shutdown(drain=True, timeout=0.05)
            release.set()
            pool.shutdown(drain=True, timeout=15)
            assert "second" in results, pool.snapshot()
        finally:
            release.set()
            pool.shutdown(drain=False)
        assert results["second"].status is JobStatus.SUCCEEDED

    def test_raising_callback_force_stops_the_pool(self):
        results = {}
        pool = ResidentPool(1).start()
        (worker,) = pool._crew
        try:
            pool.submit(
                SynthesisJob(name="c3", term=_chain(3)),
                lambda job, result: results.__setitem__(job.name, result),
                _explode_on_start,
            )
            with pytest.raises(Boom, match="c3"):
                pool.shutdown(drain=True, timeout=60)
            pool.shutdown()  # re-raised once only
        finally:
            pool.shutdown(drain=False)
        # The running job is failed, not lost, and its worker is killed.
        assert results["c3"].status is JobStatus.FAILED
        assert "shut down while the job was running" in results["c3"].error
        assert not worker.process.is_alive()


# ---------------------------------------------------------------------------
# SynthesisService over a pool: parity, ordering, crew size, failures
# ---------------------------------------------------------------------------


def _record_pools(monkeypatch):
    """Make SynthesisService record every ResidentPool it starts."""
    import repro.service.service as service_module

    pools = []

    class RecordingPool(ResidentPool):
        def start(self):
            pools.append(self)
            return super().start()

    monkeypatch.setattr(service_module, "ResidentPool", RecordingPool)
    return pools


class TestPooledService:
    def test_results_match_inline(self):
        jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4, 5)]
        inline = SynthesisService(worker_count=0).run_batch(jobs)
        pooled = SynthesisService(worker_count=2).run_batch(jobs)
        assert pooled.worker_count == 2
        for inline_result, pooled_result in zip(inline.results, pooled.results):
            assert pooled_result.status is JobStatus.SUCCEEDED
            assert [c.term for c in pooled_result.result.candidates] == [
                c.term for c in inline_result.result.candidates
            ]
            assert [c.cost for c in pooled_result.result.candidates] == [
                c.cost for c in inline_result.result.candidates
            ]

    @_FORK
    def test_worker_dead_on_arrival_fails_the_job_not_the_batch(self, monkeypatch):
        # Workers that die while *idle* (before accepting a job) must not
        # sink the batch with a BrokenPipeError out of run_batch(): the job
        # is retried on replacements a bounded number of times, then FAILED.
        import repro.service.worker as worker_module

        monkeypatch.setattr(
            worker_module, "_persistent_worker_loop", lambda conn: conn.close()
        )
        report = SynthesisService(worker_count=1).run_batch(
            [SynthesisJob(name="doomed", term=_chain(2))]
        )
        (result,) = report.results
        assert result.status is JobStatus.FAILED
        assert "worker died" in result.error

    def test_misses_start_in_priority_order(self):
        # Distinct terms: identical ones would coalesce into one execution.
        events = []
        jobs = [
            SynthesisJob(name="second", term=_chain(2), priority=0),
            SynthesisJob(name="first", term=_chain(3), priority=9),
        ]
        SynthesisService(worker_count=1, on_event=events.append).run_batch(jobs)
        assert [e.name for e in events if e.kind == "start"] == ["first", "second"]

    def test_service_threads_worker_count_into_the_pool(self, monkeypatch):
        pools = _record_pools(monkeypatch)
        jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4)]
        report = SynthesisService(worker_count=2).run_batch(jobs)
        assert not report.failed
        assert report.worker_count == 2
        assert [pool.workers_spawned for pool in pools] == [2]

    def test_crew_is_no_larger_than_the_batch(self, monkeypatch):
        pools = _record_pools(monkeypatch)
        report = SynthesisService(worker_count=8).run_batch(
            [SynthesisJob(name="only", term=_chain(3))]
        )
        assert not report.failed
        assert [pool.workers_spawned for pool in pools] == [1]

    def test_worker_exception_is_a_failed_job_not_a_sunk_batch(self):
        jobs = [
            SynthesisJob(
                name="bad", term=_chain(3), config=_FAILING_CONFIG
            ),
            SynthesisJob(name="ok", term=_chain(3)),
        ]
        report = SynthesisService(worker_count=2).run_batch(jobs)
        assert report.result_for("bad").status is JobStatus.FAILED
        assert "no-such" in report.result_for("bad").error
        assert report.result_for("ok").status is JobStatus.SUCCEEDED

    @pytest.mark.parametrize("cache", [False, True])
    def test_a_job_without_cache_keys_fails_alone(self, cache, tmp_path):
        # A non-finite literal parses but has no canonical text, so no key.
        bad = Term.parse("(Union (Translate inf 0 0 Cube) (Translate 1 0 0 Cube))")
        jobs = [
            SynthesisJob(name="before", term=_chain(2)),
            SynthesisJob(name="bad", term=bad),
            SynthesisJob(name="after", term=_chain(3)),
        ]
        service = SynthesisService(
            worker_count=0, cache=ResultCache(tmp_path) if cache else None
        )
        report = service.run_batch(jobs)
        failed = report.result_for("bad")
        assert failed.status is JobStatus.FAILED
        assert "non-finite number inf" in failed.error
        assert [r.status for r in report.results] == [
            JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.SUCCEEDED
        ]

    def test_a_job_whose_affine_arithmetic_overflows_is_served(self, tmp_path):
        # Finite literals whose fused scale overflows a float: the job is
        # keyed at both levels, synthesized, stored and then served.
        term = Term.parse(
            "(Union (Scale 1e200 1 1 (Scale 1e200 1 1 Cube)) (Translate 1 0 0 Cube))"
        )
        cache = ResultCache(tmp_path)
        service = SynthesisService(worker_count=1, cache=cache)
        jobs = [SynthesisJob(name="cold", term=term), SynthesisJob(name="warm", term=term)]
        cold = service.run_batch(jobs[:1]).results[0]
        warm = service.run_batch(jobs[1:]).results[0]
        assert cold.ok and not cold.cached, cold.error
        assert warm.cached and warm.cache_tier == "exact"
        assert cache.stores == 1 and service.snapshot()["semantic_keys"] == 1
        for candidate in warm.result.candidates:
            assert validate_synthesis(term, candidate.term).valid

    @_FORK
    def test_worker_process_death_is_reported(self, monkeypatch):
        import repro.service.worker as worker_module

        def die(payload):
            os._exit(13)

        monkeypatch.setattr(worker_module, "execute_payload", die)
        report = SynthesisService(worker_count=1).run_batch(
            [SynthesisJob(name="crasher", term=_chain(2))]
        )
        (result,) = report.results
        assert result.status is JobStatus.FAILED
        assert "exit code 13" in result.error

    def test_hard_timeout_kills_the_worker(self):
        events = []
        jobs = [
            SynthesisJob(name="slow", term=gear_model(), timeout=0.25),
            SynthesisJob(name="quick", term=_chain(3)),
        ]
        report = SynthesisService(worker_count=2, on_event=events.append).run_batch(jobs)
        assert report.result_for("slow").status is JobStatus.TIMEOUT
        assert "timeout" in report.result_for("slow").error
        assert report.result_for("quick").status is JobStatus.SUCCEEDED
        assert any(e.kind == "timeout" and e.name == "slow" for e in events)

    def test_raising_on_event_propagates_and_stops_every_worker(self):
        jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4, 5)]
        before = set(multiprocessing.active_children())
        with pytest.raises(Boom):
            SynthesisService(worker_count=2, on_event=_explode_on_start).run_batch(jobs)
        assert not set(multiprocessing.active_children()) - before


# ---------------------------------------------------------------------------
# SynthesisService orchestration: cache-first, then dispatch
# ---------------------------------------------------------------------------


class TestSynthesisService:
    def test_warm_run_is_served_entirely_from_cache(self, tmp_path):
        jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4)]
        cold = SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(jobs)
        assert cold.hit_rate == 0.0 and not cold.failed

        events = []
        warm_cache = ResultCache(tmp_path)
        warm = SynthesisService(
            worker_count=0, cache=warm_cache, on_event=events.append
        ).run_batch([SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in (3, 4)])
        assert warm.hit_rate == 1.0
        assert warm_cache.hit_rate == 1.0
        assert all(r.cached for r in warm.results)
        assert all(e.kind == "cache-hit" for e in events)
        for cold_result, warm_result in zip(cold.results, warm.results):
            assert [c.term for c in warm_result.result.candidates] == [
                c.term for c in cold_result.result.candidates
            ]

    def test_failed_jobs_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = SynthesisJob(
            name="bad", term=_chain(3), config=_FAILING_CONFIG
        )
        SynthesisService(worker_count=0, cache=cache).run_batch([bad])
        assert cache.stores == 0
        assert cache_key(bad.term, bad.config) not in cache

    def test_config_changes_miss_the_cache(self, tmp_path):
        term = _chain(3)
        SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
            [SynthesisJob(name="a", term=term)]
        )
        rerun = SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
            [SynthesisJob(name="a", term=term, config=SynthesisConfig(epsilon=1e-2))]
        )
        assert rerun.hit_rate == 0.0

    def test_timeout_clamped_runs_never_poison_untimed_lookups(self, tmp_path):
        # A timeout below max_seconds clamps the saturation fuel, which can
        # change the result — so it is part of the cache identity: a result
        # computed under `timeout=30` must not be served to an untimed run.
        term = _chain(3)
        SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
            [SynthesisJob(name="a", term=term, timeout=30.0)]
        )
        untimed = SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
            [SynthesisJob(name="a", term=term)]
        )
        assert untimed.hit_rate == 0.0

    def test_non_clamping_timeout_shares_the_cache_entry(self, tmp_path):
        # A timeout at or above max_seconds changes nothing about the
        # synthesis, so it hits the untimed run's entry.
        term = _chain(3)
        SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
            [SynthesisJob(name="a", term=term)]
        )
        generous = SynthesisService(worker_count=0, cache=ResultCache(tmp_path)).run_batch(
            [SynthesisJob(name="a", term=term, timeout=10_000.0)]
        )
        assert generous.hit_rate == 1.0

    def test_payload_with_retired_fields_is_a_warm_hit(self, tmp_path):
        # Entries written before results were stored answer-only carry the
        # run's diagnostics: inference records, run reports (with the three
        # per-iteration counters parallel search wrote) and the extraction
        # seconds.  Entries written before the parallel-search knob was
        # removed carry config.search_workers; entries written before the
        # engine switches were removed carry those three config names.
        # Exact keys never included any of them, so such entries are still
        # looked up and must decode as ordinary warm hits.  Entries written
        # before the fixed knobs were retired carry them at the values the
        # key still hashes.
        job = SynthesisJob(name="chain-3", term=_chain(3))
        fresh = synthesize(job.term, job.config)
        retired_configs = [
            {"search_workers": 0},
            {"incremental_search": False, "apply_dedup": False, "incremental_extraction": False},
            {
                "main_iterations": 1,
                "rule_match_limit": 10_000,
                "rule_ban_length": 5,
                "enable_function_inference": True,
                "enable_loop_inference": True,
                "enable_list_sorting": True,
                "max_loop_nesting": 3,
            },
        ]
        for index, retired in enumerate(retired_configs):
            directory = tmp_path / str(index)
            payload = _parent_format(fresh)
            assert payload["run_reports"][0]["iterations"] and payload["inference_records"]
            payload["config"].update(retired)
            ResultCache(directory).put(cache_key(job.term, job.config), payload)

            warm_cache = ResultCache(directory)
            warm = SynthesisService(worker_count=0, cache=warm_cache).run_batch([job])
            (result,) = warm.results
            assert warm.hit_rate == 1.0 and warm_cache.disk_hits == 1, retired
            assert result.cached and result.cache_tier == "exact"
            assert result.result.config == job.config
            assert [(c.cost, c.term) for c in result.result.candidates] == [
                (c.cost, c.term) for c in fresh.candidates
            ]
            assert result.result.run_reports == [] and result.result.inference_records == []

    def test_pool_batch_stores_the_answer_only_payload(self, tmp_path):
        job = SynthesisJob(name="chain-3", term=_chain(3))
        report = SynthesisService(worker_count=1, cache=ResultCache(tmp_path)).run_batch([job])
        (result,) = report.results
        assert result.ok and not result.cached
        (entry,) = tmp_path.glob("*/*.json")
        assert entry.stem == cache_key(job.term, job.config)
        stored = json.loads(entry.read_text())
        assert set(stored) == _ANSWER_KEYS
        assert stored == result.result.to_dict()

    def test_unknown_payload_fields_are_still_rejected(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            SynthesisConfig.from_dict({"no_such_knob": 1})

    def test_report_orders_results_by_submission(self, tmp_path):
        jobs = [
            SynthesisJob(name="z-last", term=_chain(2), priority=0),
            SynthesisJob(name="a-first", term=_chain(4), priority=5),
        ]
        report = SynthesisService(worker_count=0).run_batch(jobs)
        assert [r.name for r in report.results] == ["z-last", "a-first"]
        payload = report.to_dict()
        assert payload["jobs"] == 2 and payload["succeeded"] == 2

    def test_jobs_from_files(self, tmp_path):
        from repro.csg.pretty import format_term

        paths = []
        for n in (3, 4):
            path = tmp_path / f"chain{n}.csg"
            path.write_text(format_term(_chain(n)))
            paths.append(path)
        jobs = [SynthesisJob.from_file(path) for path in paths]
        report = SynthesisService(worker_count=0).run_batch(jobs)
        assert [r.name for r in report.results] == ["chain3", "chain4"]
        assert all(r.ok for r in report.results)

    @pytest.mark.parametrize("worker_count", [0, 2])
    def test_interrupted_batch_keeps_its_finished_work(self, tmp_path, worker_count):
        # Each result is stored when its job ends, not when the batch
        # drains: an interrupt after three jobs finished keeps all three.
        done = []

        def interrupt_on_third_done(event):
            if event.kind == "done":
                done.append(event.job_id)
                if len(done) == 3:
                    raise KeyboardInterrupt

        jobs = [SynthesisJob(name=f"chain-{n}", term=_chain(n)) for n in range(2, 7)]
        service = SynthesisService(
            worker_count=worker_count,
            cache=ResultCache(tmp_path),
            on_event=interrupt_on_third_done,
        )
        with pytest.raises(KeyboardInterrupt):
            service.run_batch(jobs)
        assert len(done) >= 3
        fresh = ResultCache(tmp_path)
        by_id = {job.job_id: job for job in jobs}
        for job_id in done:
            job = by_id[job_id]
            _, tier = fresh.lookup(cache_key(job.term, job.config))
            assert tier == "exact", job.name


# ---------------------------------------------------------------------------
# Within-batch coalescing and job-id integrity
# ---------------------------------------------------------------------------


class TestBatchCoalescing:
    def _counting_inline(self, monkeypatch):
        """Monkeypatch the inline executor to record which jobs actually ran."""
        import repro.service.service as service_module

        executed = []
        real = service_module.run_jobs_inline

        def counting(jobs, on_event=None, on_result=None):
            executed.extend(job.name for job in jobs)
            return real(jobs, on_event, on_result)

        monkeypatch.setattr(service_module, "run_jobs_inline", counting)
        return executed

    def test_duplicate_terms_execute_once_and_share_the_outcome(self, monkeypatch):
        executed = self._counting_inline(monkeypatch)
        term = _chain(3)
        events = []
        report = SynthesisService(worker_count=0, on_event=events.append).run_batch(
            [
                SynthesisJob(name="primary", term=term),
                SynthesisJob(name="twin", term=term),
                SynthesisJob(name="other", term=_chain(4)),
            ]
        )
        # Coalescing needs no cache attached: only one copy of the
        # duplicated term reached the executor.
        assert executed == ["primary", "other"]
        primary = report.result_for("primary")
        twin = report.result_for("twin")
        assert primary.ok and not primary.cached
        assert twin.ok and twin.cached and twin.cache_tier == "batch"
        # Differential: the follower reports the primary's exact outcome.
        assert [c.term for c in twin.result.candidates] == [
            c.term for c in primary.result.candidates
        ]
        assert report.batch_hits == 1 and report.cache_hits == 1
        assert report.to_dict()["batch_hits"] == 1
        assert any(
            e.kind == "cache-hit" and e.name == "twin" and e.message == "batch"
            for e in events
        )

    def test_config_differences_do_not_coalesce(self, monkeypatch):
        executed = self._counting_inline(monkeypatch)
        term = _chain(3)
        report = SynthesisService(worker_count=0).run_batch(
            [
                SynthesisJob(name="default", term=term),
                SynthesisJob(
                    name="looser", term=term, config=SynthesisConfig(epsilon=1e-2)
                ),
            ]
        )
        # The cache key folds in the config, so these are NOT interchangeable.
        assert executed == ["default", "looser"]
        assert report.batch_hits == 0

    def test_failed_primary_is_mirrored_onto_followers(self):
        bad_config = _FAILING_CONFIG
        term = _chain(3)
        report = SynthesisService(worker_count=0).run_batch(
            [
                SynthesisJob(name="bad", term=term, config=bad_config),
                SynthesisJob(name="bad-twin", term=term, config=bad_config),
            ]
        )
        primary = report.result_for("bad")
        twin = report.result_for("bad-twin")
        assert primary.status is JobStatus.FAILED
        assert twin.status is JobStatus.FAILED
        assert not twin.cached  # a mirrored failure is not a served result
        assert "coalesced with identical job" in twin.error
        assert primary.job_id in twin.error

    def test_coalesced_followers_still_populate_nothing_extra_in_cache(
        self, tmp_path, monkeypatch
    ):
        executed = self._counting_inline(monkeypatch)
        cache = ResultCache(tmp_path)
        term = _chain(3)
        report = SynthesisService(worker_count=0, cache=cache).run_batch(
            [SynthesisJob(name="a", term=term), SynthesisJob(name="b", term=term)]
        )
        assert executed == ["a"]
        assert report.batch_hits == 1
        # One execution, one store: the follower added no cache traffic.
        assert cache.stores == 1

    def test_duplicate_job_ids_are_rejected_up_front(self):
        term = _chain(2)
        jobs = [
            SynthesisJob(name="a", term=term, job_id="same"),
            SynthesisJob(name="b", term=_chain(3), job_id="same"),
        ]
        with pytest.raises(ValueError, match="duplicate job ids.*same"):
            SynthesisService(worker_count=0).run_batch(jobs)


# ---------------------------------------------------------------------------
# The hit path: a hit is answered from the stored answer
# ---------------------------------------------------------------------------


def _respelled_chain(n: int):
    """``_chain(n)`` with its operands reversed: a semantic hit, never an exact one."""
    return union_all([translate(2.0 * (i + 1), 0.0, 0.0, unit()) for i in reversed(range(n))])


class TestHitPath:
    def _submit(self, service, term, name="job"):
        """Run one job through ``service`` and return its result."""
        (result,) = service.run_batch([SynthesisJob(name=name, term=term)]).results
        return result

    def _work(self, service):
        """The hit path's work counters: (decodes, semantic keys derived)."""
        return service.cache.decodes, service.snapshot()["semantic_keys"]

    def test_exact_memory_hit_decodes_nothing_and_derives_no_semantic_key(self):
        service = SynthesisService(worker_count=0, cache=ResultCache())
        miss = self._submit(service, _chain(3))
        assert not miss.cached and self._work(service) == (0, 1)
        hit = self._submit(service, _chain(3))
        assert hit.cached and hit.cache_tier == "exact"
        assert self._work(service) == (0, 1)
        # The hit is answered with the result the miss was answered with.
        assert hit.result is miss.result

    def test_semantic_hit_derives_one_key_and_decodes_nothing(self):
        service = SynthesisService(worker_count=0, cache=ResultCache())
        miss = self._submit(service, _chain(3))
        hit = self._submit(service, _respelled_chain(3))
        assert hit.cached and hit.cache_tier == "semantic"
        assert self._work(service) == (0, 2)
        assert hit.result is miss.result

    def test_disk_hit_decodes_once_and_its_memory_hits_never(self, tmp_path):
        self._submit(SynthesisService(worker_count=0, cache=ResultCache(tmp_path)), _chain(3))
        cache = ResultCache(tmp_path)
        service = SynthesisService(worker_count=0, cache=cache)
        first = self._submit(service, _chain(3))
        assert cache.disk_hits == 1 and self._work(service) == (1, 0)
        later = [self._submit(service, _chain(3)), self._submit(service, _respelled_chain(3))]
        assert cache.memory_hits == 2 and self._work(service) == (1, 1)
        assert all(result.result is first.result for result in later)

    def test_memory_tier_off_decodes_every_hit(self, tmp_path):
        service = SynthesisService(
            worker_count=0, cache=ResultCache(tmp_path, memory_capacity=0)
        )
        self._submit(service, _chain(3))
        self._submit(service, _chain(3))
        self._submit(service, _chain(3))
        assert service.cache.disk_hits == 2 and self._work(service) == (2, 1)

    def test_hit_headline_equals_its_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = SynthesisService(worker_count=0, cache=cache)
        miss = self._submit(service, _chain(4))
        exact = self._submit(service, _chain(4))
        semantic = self._submit(service, _respelled_chain(4))
        disk = self._submit(
            SynthesisService(worker_count=0, cache=ResultCache(tmp_path)), _chain(4)
        )
        assert [exact.cache_tier, semantic.cache_tier, disk.cache_tier] == [
            "exact", "semantic", "exact"
        ]
        headline = miss.to_dict()["result"]
        assert headline == SynthesisResult.from_dict(miss.result_payload).headline()
        for hit in (exact, semantic, disk):
            assert hit.cached and hit.to_dict()["result"] == headline

    def test_the_headline_is_measured_once_per_result(self, monkeypatch):
        measured = []
        real = SynthesisResult.size_reduction

        def counting(result):
            measured.append(result)
            return real(result)

        monkeypatch.setattr(SynthesisResult, "size_reduction", counting)
        service = SynthesisService(worker_count=0, cache=ResultCache())
        frames = [self._submit(service, _chain(3)).to_dict() for _ in range(4)]
        assert [frame["cached"] for frame in frames] == [False, True, True, True]
        assert len(measured) == 1
        assert all(frame["result"] == frames[0]["result"] for frame in frames)

    def test_cache_counters_for_a_fixed_stream_are_unchanged(self, tmp_path):
        # The stream mixes misses, an in-batch duplicate, exact and semantic
        # hits from both tiers (two memory slots force disk reads).  The
        # counters are those the service read before hits were answered from
        # decoded results: hits may do less work, never different lookups.
        cache = ResultCache(tmp_path, memory_capacity=2)
        service = SynthesisService(worker_count=0, cache=cache)
        batches = [
            [_chain(3), _chain(4), _chain(3)],
            [_respelled_chain(3)],
            [_chain(5)],
            [_chain(4), _respelled_chain(4)],
            [_chain(3)],
            [_respelled_chain(5), _chain(2)],
        ]
        tiers = []
        for number, terms in enumerate(batches):
            report = service.run_batch(
                [SynthesisJob(name=f"b{number}-{i}", term=term) for i, term in enumerate(terms)]
            )
            tiers += [result.cache_tier for result in report.results]
        stats = cache.stats()
        assert {name: stats[name] for name in _STREAM_COUNTERS} == _STREAM_COUNTERS
        assert tiers == [
            None, None, "batch", "semantic", None, "exact", "semantic", "exact", "semantic", None
        ]
        assert service.snapshot()["coalesced"] == 1
        # One semantic key per exact miss (5 misses, 3 semantic hits); each
        # disk hit decoded its payload once.
        assert self._work(service) == (stats["disk_hits"], 8)

    def test_a_semantic_key_that_raises_fails_the_job_alone(self, tmp_path, monkeypatch):
        import repro.service.service as service_module

        cache = ResultCache(tmp_path)
        service = SynthesisService(worker_count=0, cache=cache)
        self._submit(service, _chain(3))
        before = (cache.stats(), service.snapshot())

        def unkeyable(term, config):
            raise OverflowError("cannot normalize this term")

        monkeypatch.setattr(service_module, "semantic_cache_key", unkeyable)
        report = service.run_batch(
            [
                SynthesisJob(name="warm", term=_chain(3)),
                SynthesisJob(name="unkeyable", term=_chain(4)),
                SynthesisJob(name="warm-again", term=_chain(3)),
            ]
        )
        failed = report.result_for("unkeyable")
        assert failed.status is JobStatus.FAILED
        assert "cache key cannot be derived" in failed.error
        assert failed.error_summary() == "OverflowError: cannot normalize this term"
        assert [r.cache_tier for r in report.results] == ["exact", None, "exact"]
        # Only the two exact hits moved a counter; the failed job moved none
        # and left no in-flight entry.
        stats, snapshot = cache.stats(), service.snapshot()
        assert stats["hits"] == before[0]["hits"] + 2
        for name in ("misses", "stores", "semantic_hits", "disk_entries", "decodes"):
            assert stats[name] == before[0][name], name
        assert snapshot["semantic_keys"] == before[1]["semantic_keys"]
        assert snapshot["in_flight_keys"] == 0 and snapshot["coalesced"] == 0


    def test_an_exact_hit_is_answered_while_a_semantic_key_is_derived(self, monkeypatch):
        import repro.service.service as service_module

        service = SynthesisService(worker_count=0, cache=ResultCache())
        warm = self._submit(service, _chain(3))
        derived_before = self._work(service)[1]
        entered, release, hit_answered = threading.Event(), threading.Event(), threading.Event()
        real = service_module.semantic_cache_key

        def blocking(term, config):
            entered.set()
            assert release.wait(timeout=60)  # hang guard
            return real(term, config)

        answers = {}

        def on_result(job, result):
            answers[job.name] = result
            if job.name == "hit":
                hit_answered.set()

        monkeypatch.setattr(service_module, "semantic_cache_key", blocking)
        threads = [
            threading.Thread(
                target=service.submit, args=(SynthesisJob(name=name, term=term), on_result)
            )
            for name, term in (("miss", _chain(4)), ("hit", _chain(3)))
        ]
        threads[0].start()
        try:
            assert entered.wait(timeout=60)  # hang guard
            threads[1].start()
            # The miss is still deriving its key: the hit must not wait for it.
            assert hit_answered.wait(timeout=30), "the exact hit waited on the miss's key"
            assert "miss" not in answers
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=60)
        assert answers["hit"].cache_tier == "exact" and answers["hit"].result is warm.result
        service.shutdown()
        assert answers["miss"].ok and not answers["miss"].cached
        # The hit derived nothing; the miss derived its key once.
        assert self._work(service) == (0, derived_before + 1)


    def test_a_key_gone_after_the_probe_is_derived_by_the_lookup(self, monkeypatch):
        # The presence probe saw the exact key, then the entry left the
        # cache: the lookup misses and derives the semantic key itself.
        service = SynthesisService(worker_count=0, cache=ResultCache())
        monkeypatch.setattr(ResultCache, "__contains__", lambda cache, key: True)
        miss = self._submit(service, _chain(3))
        assert not miss.cached and self._work(service) == (0, 1)
        monkeypatch.undo()
        respelled = self._submit(service, _respelled_chain(3))
        assert respelled.cache_tier == "semantic" and respelled.result is miss.result


#: ``ResultCache.stats()`` after the fixed stream of
#: ``TestHitPath.test_cache_counters_for_a_fixed_stream_are_unchanged``, as
#: read on the service that decoded every hit.
_STREAM_COUNTERS = {
    "hits": 5,
    "misses": 5,
    "memory_hits": 2,
    "disk_hits": 3,
    "exact_hits": 2,
    "semantic_hits": 3,
    "stores": 4,
    "evictions": 0,
    "memory_entries": 2,
    "disk_entries": 4,
}


# ---------------------------------------------------------------------------
# Observability: batch metrics, trace threading, zero-jobs guards
# ---------------------------------------------------------------------------


class TestServiceObservability:
    def test_traced_batch_ships_spans_and_phase_metrics(self):
        service = SynthesisService(worker_count=0, trace=True)
        jobs = [SynthesisJob(name=f"c{n}", term=_chain(n)) for n in (3, 4)]
        report = service.run_batch(jobs)
        assert all(r.ok for r in report.results)
        for result in report.results:
            assert result.trace, "traced run must ship spans"
            assert any(s["name"] == "saturate" for s in result.trace)
        metrics = report.metrics
        assert metrics["jobs"]["count"] == 2
        assert metrics["phases"]["saturate"]["count"] >= 2
        assert metrics["phases"]["extract"]["p95"] > 0.0
        assert metrics["models"]["c3"]["count"] == 1

    def test_untraced_batch_has_no_spans_but_still_aggregates_latency(self):
        service = SynthesisService(worker_count=0)
        report = service.run_batch([SynthesisJob(name="c", term=_chain(3))])
        assert report.results[0].trace is None
        assert report.metrics["jobs"]["count"] == 1
        assert report.metrics["phases"] == {}

    def test_trace_flag_stays_out_of_cache_identity(self, tmp_path):
        term = _chain(3)
        config = SynthesisConfig()
        job = SynthesisJob(name="c", term=term, config=config)
        traced = SynthesisJob(name="c", term=term, config=config, trace=True)
        assert cache_key(job.term, job.config) == cache_key(traced.term, traced.config)
        # A traced run warms the cache for an untraced one (and vice versa).
        cache = ResultCache(tmp_path / "cache")
        SynthesisService(worker_count=0, cache=cache, trace=True).run_batch(
            [SynthesisJob(name="c", term=term, config=config)]
        )
        warm = SynthesisService(worker_count=0, cache=cache).run_batch(
            [SynthesisJob(name="c", term=term, config=config)]
        )
        assert warm.results[0].cached

    def test_cached_payloads_stay_compact_without_trace(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        term = _chain(3)
        SynthesisService(worker_count=0, cache=cache, trace=True).run_batch(
            [SynthesisJob(name="c", term=term)]
        )
        key = cache_key(term, SynthesisJob(name="c", term=term).config)
        payload, tier = cache.lookup(key, None)
        assert tier == "exact"
        assert "trace" not in payload

    def test_traced_results_match_untraced(self):
        term = _chain(4)
        plain = SynthesisService(worker_count=0).run_batch(
            [SynthesisJob(name="c", term=term)]
        )
        traced = SynthesisService(worker_count=0, trace=True).run_batch(
            [SynthesisJob(name="c", term=term)]
        )
        assert [c.term for c in plain.results[0].result.candidates] == [
            c.term for c in traced.results[0].result.candidates
        ]

    def test_trace_crosses_the_process_boundary(self):
        service = SynthesisService(worker_count=1, trace=True)
        report = service.run_batch([SynthesisJob(name="c", term=_chain(3))])
        result = report.results[0]
        assert result.ok
        assert result.trace
        assert any(s["name"] == "job" for s in result.trace)
        # The wire/report form stays compact: no spans in to_dict().
        assert "trace" not in result.to_dict()

    def test_zero_jobs_batch_reports_zero_hit_rate(self):
        # Regression pin: an empty batch must report hit_rate 0.0 (not
        # raise ZeroDivisionError) and serialize cleanly.
        report = SynthesisService(worker_count=0).run_batch([])
        assert report.results == []
        assert report.hit_rate == 0.0
        payload = report.to_dict()
        assert payload["hit_rate"] == 0.0
        assert payload["jobs"] == 0
        assert payload["metrics"]["jobs"]["count"] == 0

    def test_zero_lookup_cache_reports_zero_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.hit_rate == 0.0
        assert cache.stats()["hit_rate"] == 0.0


# ---------------------------------------------------------------------------
# Interpreter exit while workers are still up
# ---------------------------------------------------------------------------

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: An exception escapes while a resident fleet is up, so shutdown() never runs.
_RESIDENT_EXIT = """
from repro.service.worker import ResidentPool

ResidentPool(2).start()
raise RuntimeError("escaped before shutdown()")
"""

#: An exception escapes while a batch is mid-job on a background thread.  The
#: stand-in job runs until its parent process is gone, so only the exit path
#: can end it.
_BATCH_EXIT = """
import os, threading, time

import repro.service.worker as worker_module
from repro.csg.build import unit
from repro.service import SynthesisJob, SynthesisService

def run_until_orphaned(payload):
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.05)

worker_module.execute_payload = run_until_orphaned
started = threading.Event()
service = SynthesisService(worker_count=1, on_event=lambda event: started.set())
threading.Thread(
    target=service.run_batch,
    args=([SynthesisJob(name="stuck", term=unit())],),
    daemon=True,
).start()
assert started.wait(60)
raise RuntimeError("escaped before the batch finished")
"""


class TestExitWithWorkersUp:
    """A process must exit even when an exception skips the pool shutdown.

    Worker processes are daemonic, so interpreter exit terminates them
    instead of joining a child that waits on its pipe forever.  The timeout
    is generous on purpose: the failure mode is an indefinite hang, not a
    slowdown.
    """

    def _assert_exits(self, program: str) -> None:
        process = subprocess.Popen(
            [sys.executable, "-c", program],
            env=dict(os.environ, PYTHONPATH=_SRC),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the process hung at exit with its workers still up")
        assert process.returncode == 1, stderr
        assert "RuntimeError: escaped before" in stderr

    def test_resident_pool(self):
        self._assert_exits(_RESIDENT_EXIT)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the stand-in job relies on fork inheriting the patched executor",
    )
    def test_pooled_batch_mid_job(self):
        self._assert_exits(_BATCH_EXIT)
