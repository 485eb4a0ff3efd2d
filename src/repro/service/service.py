"""The synthesis service: the one admission path for synthesis jobs.

Both front ends submit through :class:`SynthesisService`, the only module
that keys, probes, coalesces and stores jobs: ``batch``/``table1`` via
:meth:`SynthesisService.run_batch` (submit every job, then drain) and the
``serve`` daemon, which starts the service's pool once and submits each
job as its frame arrives.  :meth:`SynthesisService.submit` folds a job's
timeout into its config and derives its exact cache key.  The semantic key
(a normalization of the whole term) is derived only when the exact key is
not in the cache and that tier is on, so an exact hit normalizes nothing,
and outside the service lock, so a large term's normalization stalls no
other job.  The snapshot counts the keys exact misses look up
(``semantic_keys``); a key derived for a job whose exact entry was stored
meanwhile goes unused and uncounted.  A job whose keys
cannot be derived (a term with a non-finite literal has no canonical text)
is answered FAILED at once.  A cache hit is answered at once with the
cache's shared, already decoded result, so a repeated hit parses no
candidate and, the headline being measured once per result, measures no
term either.  A job whose
exact key is already in flight becomes a follower of that job and is
answered with its outcome (``cache_tier="batch"``).  Any other job is
dispatched to the service's :class:`~repro.service.worker.ResidentPool`,
or held until drain time, when ``worker_count == 0`` runs it through
:func:`~repro.service.worker.run_jobs_inline` and a pooled batch starts at
most ``min(worker_count, misses)`` workers.  When a job ends, the service
stores a success (its payload, and the result the worker's payload was
decoded into), ingests its latency, and answers it and its followers, so
a batch stopped halfway keeps every job that finished.

Job failures never propagate: a job that raises, crashes its worker, or
blows its timeout is a failed result.  An exception from a caller's
callback does propagate, after the workers are stopped.

Lock order: the daemon lock, then the service lock (in-flight map, cache,
metrics), then the pool lock.  No callback, and so no socket send, runs
under the service lock.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.histogram import MetricsAggregator
from repro.obs.prometheus import render_prometheus
from repro.service.cache import ResultCache, cache_key, semantic_cache_key
from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob
from repro.service.queue import JobQueue
from repro.service.worker import (
    EventCallback,
    ResidentPool,
    ResultCallback,
    _emit,
    run_jobs_inline,
)

#: The cache counters a ``health`` frame carries.
_CACHE_COUNTERS = ("exact_hits", "semantic_hits", "misses", "stores", "hit_rate")


@dataclass
class BatchReport:
    """Everything one batch run produced."""

    #: Per-job outcomes, in submission order (not completion order).
    results: List[JobResult]
    #: Wall-clock seconds for the whole batch.
    seconds: float = 0.0
    #: Worker processes used (0 = inline execution).
    worker_count: int = 0
    #: Cache counter snapshot for this run ({} when no cache was attached).
    cache: Dict[str, object] = field(default_factory=dict)
    #: Latency snapshot (``MetricsAggregator.snapshot()``) for this service's
    #: lifetime so far; per-phase families are populated when tracing is on.
    metrics: Dict[str, object] = field(default_factory=dict)

    # -- accessors -------------------------------------------------------------

    @property
    def succeeded(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def exact_hits(self) -> int:
        """Jobs served by the exact (byte-identical input) cache level."""
        return sum(1 for r in self.results if r.cached and r.cache_tier == "exact")

    @property
    def semantic_hits(self) -> int:
        """Jobs served by the semantic (normalized-key) cache level."""
        return sum(1 for r in self.results if r.cached and r.cache_tier == "semantic")

    @property
    def batch_hits(self) -> int:
        """Jobs coalesced onto an identical job within the same batch."""
        return sum(1 for r in self.results if r.cached and r.cache_tier == "batch")

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from the cache (0.0 without a cache)."""
        return self.cache_hits / len(self.results) if self.results else 0.0

    def result_for(self, name: str) -> Optional[JobResult]:
        """The first job result with the given name, if any."""
        for result in self.results:
            if result.name == name:
                return result
        return None

    def to_dict(self) -> dict:
        """JSON-able report (per-job outcomes are compact summaries)."""
        return {
            "seconds": self.seconds,
            "worker_count": self.worker_count,
            "jobs": len(self.results),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "exact_hits": self.exact_hits,
            "semantic_hits": self.semantic_hits,
            "batch_hits": self.batch_hits,
            "hit_rate": self.hit_rate,
            "cache": self.cache,
            "metrics": self.metrics,
            "results": [result.to_dict() for result in self.results],
        }


@dataclass
class _Flight:
    """One dispatched job, its cache keys, and the followers waiting on it."""

    job: SynthesisJob
    key: str
    semantic_key: Optional[str]
    on_result: ResultCallback
    followers: List[Tuple[SynthesisJob, ResultCallback]] = field(default_factory=list)


class SynthesisService:
    """The one per-job path from submission to a stored, answered result."""

    def __init__(
        self,
        worker_count: int = 0,
        cache: Optional[ResultCache] = None,
        on_event: Optional[EventCallback] = None,
        trace: bool = False,
    ):
        if worker_count < 0:
            raise ValueError("worker_count must be >= 0")
        self.worker_count = worker_count
        self.cache = cache
        self.on_event = on_event
        #: When True every executed job runs with per-phase span tracing and
        #: ships its trace back on :attr:`JobResult.trace`; the trace flag is
        #: not part of the cache identity.
        self.trace = trace
        #: Streaming latency histograms over this service's lifetime (per
        #: phase / per model / per cache tier); snapshotted into every
        #: :attr:`BatchReport.metrics` and the daemon's ``stats`` frame.
        self.metrics = MetricsAggregator()
        self._lock = threading.Lock()
        #: Dispatched jobs by exact cache key, until they end.
        self._in_flight: Dict[str, _Flight] = {}
        #: Dispatched jobs held for :meth:`shutdown` to run (no pool running).
        self._backlog: List[_Flight] = []
        #: Jobs registered as followers over the service's lifetime.
        self._coalesced = 0
        #: Semantic keys looked up over the service's lifetime (one per
        #: exact miss while the semantic tier is on).
        self._semantic_keys = 0
        self._pool: Optional[ResidentPool] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SynthesisService":
        """Start ``worker_count`` workers now, so each miss runs as it is submitted."""
        self._pool = ResidentPool(self.worker_count).start()
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Finish the jobs submitted so far, then stop the workers.

        ``drain=True`` runs the held jobs and waits, at most ``timeout``
        seconds, for every job in flight; ``drain=False`` does neither.
        Then the workers stop and every job still unanswered is answered
        FAILED.  Re-raises the first exception a callback raised.  Must not
        run concurrently with :meth:`submit`; the service takes new jobs
        afterwards.
        """
        with self._lock:
            backlog, self._backlog = self._backlog, []
            pool = self._pool
        try:
            if drain and backlog:
                # Held jobs exist only while no pool runs; inline at 0 workers.
                if self.worker_count and pool is None:
                    pool = self._pool = ResidentPool(
                        min(self.worker_count, len(backlog))
                    ).start()
                self._run(backlog, pool)
            if pool is not None:
                pool.shutdown(drain=drain, timeout=timeout)
        finally:
            if pool is not None:
                pool.shutdown(drain=False)
            with self._lock:
                self._pool = None
                abandoned = list(self._in_flight.values())
            for flight in abandoned:
                self._complete(
                    flight, _failed(flight.job, "the service stopped before the job ran")
                )

    # -- the admission path ----------------------------------------------------

    def submit(self, job: SynthesisJob, on_result: ResultCallback) -> None:
        """Admit one job; ``on_result(job, result)`` fires exactly once.

        A cache hit is answered before this returns, and before its
        ``cache-hit`` event is emitted.  So is a job whose cache keys cannot
        be derived (a term with a non-finite literal has no canonical
        text): it is answered FAILED, naming the cause, and never runs.
        """
        job = self._normalize(job)
        if self.trace and not job.trace:
            job = replace(job, trace=True)
        try:
            key = cache_key(job.term, job.config)
        except Exception:
            self._fail_unkeyed(job, on_result, traceback.format_exc())
            return
        semantic_key = None
        if self.cache is not None and self.cache.semantic:
            with self._lock:
                present = key in self.cache
            if not present:
                # Unlocked: normalizing a large term takes long enough to
                # stall every other admission and completion.
                try:
                    semantic_key = semantic_cache_key(job.term, job.config)
                except Exception:
                    self._fail_unkeyed(job, on_result, traceback.format_exc())
                    return
        result = tier = error = None

        def derive_semantic_key() -> str:
            # The lookup calls this, under the lock, only on an exact miss;
            # it derives the key here only if the entry the probe saw has
            # left the cache since.
            nonlocal semantic_key
            if semantic_key is None:
                try:
                    semantic_key = semantic_cache_key(job.term, job.config)
                except Exception as exc:
                    raise _Unkeyed(traceback.format_exc()) from exc
            self._semantic_keys += 1
            return semantic_key

        with self._lock:
            if self.cache is not None:
                lookup_start = time.perf_counter()
                try:
                    result, tier = self.cache.lookup(key, derive_semantic_key, decoded=True)
                except _Unkeyed as unkeyed:
                    error = unkeyed.args[0]
                if result is not None:
                    # A hit's end-to-end latency is the lookup itself.
                    self.metrics.ingest(
                        model=job.name,
                        seconds=time.perf_counter() - lookup_start,
                        cache_tier=tier,
                    )
            if result is None and error is None:
                flight = self._in_flight.get(key)
                if flight is not None:
                    flight.followers.append((job, on_result))
                    self._coalesced += 1
                    return
                # Registered before dispatch, so no completion can miss it.
                flight = self._in_flight[key] = _Flight(job, key, semantic_key, on_result)
                pool = self._pool
                if pool is None:
                    self._backlog.append(flight)
        if error is not None:
            self._fail_unkeyed(job, on_result, error)
        elif result is not None:
            on_result(
                job,
                JobResult(
                    job_id=job.job_id,
                    name=job.name,
                    status=JobStatus.SUCCEEDED,
                    result=result,
                    cached=True,
                    cache_tier=tier,
                ),
            )
            _emit(self.on_event, JobEvent("cache-hit", job.job_id, job.name, message=tier))
        elif pool is not None:
            self._run([flight], pool)

    def _fail_unkeyed(self, job: SynthesisJob, on_result: ResultCallback, error: str) -> None:
        """Answer FAILED a job whose cache key raised ``error`` (a traceback)."""
        failed = _failed(job, f"the job's cache key cannot be derived\n{error}")
        on_result(job, failed)
        _emit(
            self.on_event,
            JobEvent("failed", job.job_id, job.name, message=failed.error_summary()),
        )

    def _run(self, flights: List[_Flight], pool: Optional[ResidentPool]) -> None:
        """Run dispatched jobs on ``pool``, or inline when it is None."""
        by_id = {flight.job.job_id: flight for flight in flights}

        def complete(job: SynthesisJob, result: JobResult) -> None:
            self._complete(by_id[job.job_id], result)

        jobs = [flight.job for flight in flights]
        if pool is None:
            run_jobs_inline(jobs, self.on_event, complete)
            return
        # Submitting in queue order makes the jobs start in that order.
        for job in JobQueue(jobs).drain():
            try:
                pool.submit(job, complete, self.on_event)
            except RuntimeError:
                # A raising callback force-stopped the pool.
                complete(job, _failed(job, "the worker pool stopped before the job ran"))

    def _complete(self, flight: _Flight, result: JobResult) -> None:
        """A dispatched job ended: store it, record it, answer it and its followers."""
        job = flight.job
        with self._lock:
            del self._in_flight[flight.key]
            self.metrics.ingest(model=job.name, seconds=result.seconds, trace=result.trace)
            if result.ok:
                for follower, _ in flight.followers:
                    # A follower's latency is the execution it waited on.
                    self.metrics.ingest(
                        model=follower.name, seconds=result.seconds, cache_tier="batch"
                    )
                if self.cache is not None:
                    # The worker shipped the result as its to_dict() form
                    # and ``result.result`` was decoded from it: store that
                    # verbatim, and keep the decoded result for the hits.
                    self.cache.put(
                        flight.key, result.result_payload, flight.semantic_key,
                        result=result.result,
                    )
        flight.on_result(job, result)
        for follower, on_result in flight.followers:
            on_result(follower, self._follower_result(follower, result))
        for follower, _ in flight.followers:
            _emit(
                self.on_event,
                JobEvent(
                    "cache-hit" if result.ok else "failed",
                    follower.job_id,
                    follower.name,
                    message="batch" if result.ok else result.error_summary(),
                ),
            )

    # -- batches ---------------------------------------------------------------

    def run_batch(self, jobs: Sequence[SynthesisJob]) -> BatchReport:
        """Run a batch of jobs and return their outcomes in submission order.

        Raises :class:`ValueError` when two jobs share a ``job_id`` —
        results are keyed by id, so duplicates would silently clobber one
        outcome and report the other twice.
        """
        self._reject_duplicate_ids(jobs)
        start = time.perf_counter()
        results: Dict[str, JobResult] = {}

        def record(job: SynthesisJob, result: JobResult) -> None:
            results[job.job_id] = result

        try:
            for job in jobs:
                self.submit(job, record)
            self.shutdown(drain=True)
        finally:
            self.shutdown(drain=False)
        with self._lock:
            return BatchReport(
                results=[results[job.job_id] for job in jobs],
                seconds=time.perf_counter() - start,
                worker_count=self.worker_count,
                cache=self.cache.stats() if self.cache is not None else {},
                metrics=self.metrics.snapshot(),
            )

    # -- observability ---------------------------------------------------------

    def snapshot(self, detail: bool = False) -> Dict[str, object]:
        """Workers, in-flight keys, followers, semantic keys derived and cache
        counters, read at once.

        ``detail`` adds the latency metrics and swaps the cache's hit
        counters for its full ``stats()``, which walks the disk tier.
        """
        with self._lock:
            cache = self.cache
            if cache is not None:
                cache = (
                    cache.stats()
                    if detail
                    else {name: getattr(cache, name) for name in _CACHE_COUNTERS}
                )
            return {
                "workers": self._pool.snapshot() if self._pool is not None else {},
                "in_flight_keys": len(self._in_flight),
                "coalesced": self._coalesced,
                "semantic_keys": self._semantic_keys,
                "cache": cache,
                "latency": self.metrics.snapshot() if detail else None,
            }

    def prometheus_text(self) -> str:
        """The latency metrics as Prometheus exposition text."""
        with self._lock:
            return render_prometheus(self.metrics)

    # -- per-job rules ---------------------------------------------------------

    @staticmethod
    def _reject_duplicate_ids(jobs: Sequence[SynthesisJob]) -> None:
        """Fail fast on colliding job ids instead of corrupting the report."""
        seen: Dict[str, int] = {}
        for job in jobs:
            seen[job.job_id] = seen.get(job.job_id, 0) + 1
        duplicates = sorted(job_id for job_id, count in seen.items() if count > 1)
        if duplicates:
            raise ValueError(
                f"duplicate job ids in batch: {', '.join(duplicates)} — "
                "results are keyed by job_id, so duplicates would clobber "
                "each other; give each job a unique id (or let it default)"
            )

    @staticmethod
    def _follower_result(job: SynthesisJob, primary: JobResult) -> JobResult:
        """The outcome a coalesced duplicate reports.

        The follower never ran: on success it is served the primary's
        payload exactly like a cache hit (``cache_tier="batch"``); a failed
        or timed-out primary is mirrored (an identical job would have met
        the identical fate), with the error annotated so the report shows
        where the single execution happened.
        """
        if primary.ok:
            return JobResult(
                job_id=job.job_id,
                name=job.name,
                status=JobStatus.SUCCEEDED,
                result=primary.result,
                cached=True,
                cache_tier="batch",
                result_payload=primary.result_payload,
            )
        return JobResult(
            job_id=job.job_id,
            name=job.name,
            status=primary.status,
            error=(
                f"coalesced with identical job {primary.job_id}, which "
                f"{primary.status.value}:\n{primary.error or ''}"
            ),
        )

    @staticmethod
    def _normalize(job: SynthesisJob) -> SynthesisJob:
        """Fold a job's timeout into its config *before* cache keying.

        The timeout clamps the saturation fuel (``max_seconds``) inside the
        worker, which can change the synthesized result — so it must be part
        of the cache identity.  Normalizing here means a timeout-truncated
        run is stored under the clamped config's key and can never be served
        to a later run with a bigger budget.
        """
        if job.timeout is None or job.timeout >= job.config.max_seconds:
            return job
        return replace(job, config=replace(job.config, max_seconds=job.timeout))


class _Unkeyed(Exception):
    """A job's semantic key cannot be derived; ``args[0]`` is the traceback."""


def _failed(job: SynthesisJob, error: str) -> JobResult:
    return JobResult(job_id=job.job_id, name=job.name, status=JobStatus.FAILED, error=error)
