"""The resident synthesis daemon: one warm engine serving many clients.

:class:`SynthesisDaemon` promotes the per-invocation batch service to a
long-lived process.  It listens on a Unix-domain socket speaking the
length-prefixed JSON frame protocol of :mod:`repro.service.protocol`,
accepts job submissions from any number of concurrent clients, and runs
everything on shared, warm infrastructure:

* **one worker fleet** — a :class:`~repro.service.worker.ResidentPool` of
  persistent worker processes fed through the priority
  :class:`~repro.service.queue.JobQueue` semantics (priority desc, FIFO
  ties).  The batch layer's isolation contract carries over verbatim: a
  worker that crashes, raises, or blows its deadline costs exactly the job
  it was running, is replaced, and the daemon keeps serving every other
  client.
* **one cross-request cache** — a shared
  :class:`~repro.service.cache.ResultCache` (exact + semantic tiers)
  probed for every submission, regardless of which connection it arrived
  on, so client B's first request rides client A's warm entry.  Misses
  that are *already in flight* coalesce: the duplicate waits for the
  running execution and is served its payload (``cache_tier="batch"``),
  never re-submitted.
* **admission control** — at most ``max_pending`` admitted-but-unfinished
  jobs; a submission that would exceed the bound is answered with an
  explicit ``rejected`` frame and enqueues nothing, so a traffic spike
  degrades into fast rejections instead of an unbounded backlog.
* **observability** — ``health`` and ``stats`` request types expose
  uptime, queue depth, worker crash/respawn counters, and per-tier cache
  counters while jobs run; every frame is snapshotted under the daemon
  lock in one critical section, so it can never report torn values
  mid-schedule.  With ``trace_jobs`` (the default) every executed job
  carries a per-phase span trace (:mod:`repro.obs`): the daemon streams
  span durations into latency histograms per phase / per model / per
  cache tier, serves exact-rank p50/p95/p99 in the ``stats`` frame's
  ``latency`` section (``szalinski stats --percentiles`` renders it),
  and, when ``trace_path`` is set, appends every span to a JSONL trace
  file (``szalinski trace`` converts it for Perfetto).

Failure containment at the wire: a client that sends a malformed frame is
answered with one ``error`` frame and has *its* connection closed; a
client that disconnects mid-job detaches from its subscriptions while the
job runs on (and still populates the cache).  Graceful shutdown
(``shutdown`` frame, :meth:`SynthesisDaemon.request_shutdown`, or the
CLI's SIGTERM handler) stops admissions, drains every in-flight and queued
job — waiting clients get their results — then kills the fleet and removes
the socket.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisResult
from repro.obs.export import span_lines, write_trace_jsonl
from repro.obs.histogram import MetricsAggregator
from repro.obs.prometheus import render_prometheus
from repro.service.cache import ResultCache, cache_key, semantic_cache_key
from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob, check_timeout
from repro.service.protocol import ProtocolError, recv_frame, send_frame
from repro.service.service import SynthesisService
from repro.service.worker import ResidentPool


class _ClientConnection:
    """One accepted client socket plus its serialized-send bookkeeping."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()
        self.alive = True

    def send(self, frame: dict) -> None:
        """Best-effort frame send; a dead peer just mutes the connection."""
        with self._send_lock:
            if not self.alive:
                return
            try:
                send_frame(self.sock, frame)
            except (OSError, ProtocolError):
                self.alive = False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class _Track:
    """One admitted job: who is waiting on it and under which cache keys."""

    job: SynthesisJob
    client: Optional[_ClientConnection]
    wait: bool
    stream: bool
    key: str = ""
    semantic_key: Optional[str] = None
    #: Coalesced duplicates riding this execution.
    followers: List["_Track"] = field(default_factory=list)


class SynthesisDaemon:
    """A resident synthesis engine behind a Unix-domain socket."""

    def __init__(
        self,
        socket_path,
        worker_count: int = 2,
        cache: Optional[ResultCache] = None,
        max_pending: int = 256,
        default_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        trace_jobs: bool = True,
        trace_path=None,
    ):
        if worker_count < 1:
            raise ValueError("the daemon needs at least one worker")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        check_timeout(default_timeout)
        self.socket_path = str(socket_path)
        self.worker_count = worker_count
        self.cache = cache
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self._start_method = start_method
        #: Run every executed job with per-phase span tracing so the stats
        #: frame can serve per-phase percentiles.  The trace flag is not part
        #: of the cache identity and the spans stay out of wire frames, so
        #: the only cost is the tracer's bookkeeping inside the worker.
        self.trace_jobs = trace_jobs
        #: When set, every finished job's spans are appended here as JSONL
        #: (one span per line); ``szalinski trace`` converts the file to
        #: Chrome trace_event JSON for Perfetto.
        self.trace_path = Path(trace_path) if trace_path is not None else None
        #: Streaming latency histograms (per phase / per model / per cache
        #: tier) served in the ``stats`` frame; guarded by ``_lock``.
        self.metrics = MetricsAggregator()
        #: Serializes JSONL appends from concurrent completion callbacks.
        self._trace_lock = threading.Lock()

        #: Guards tracks, coalescing, counters, AND the cache — cache reads
        #: and writes must be atomic with in-flight registration, or a job
        #: finishing between a miss and its enqueue would strand followers.
        self._lock = threading.Lock()
        self._tracks: Dict[str, _Track] = {}
        self._by_key: Dict[str, str] = {}
        self._pending = 0
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "succeeded": 0,
            "failed": 0,
            "timeout": 0,
            "cache_hits": 0,
            "exact_hits": 0,
            "semantic_hits": 0,
            "coalesced": 0,
            "rejected": 0,
            "protocol_errors": 0,
            "connections": 0,
        }
        self._clients: Set[_ClientConnection] = set()
        self._ids = itertools.count(1)

        self._pool: Optional[ResidentPool] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._draining = False
        self._stop_requested = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_guard = threading.Lock()
        self._shut_down = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SynthesisDaemon":
        """Spawn the fleet, bind the socket, and begin accepting clients."""
        if self._pool is not None:
            raise RuntimeError("daemon already started")
        # The fleet forks before the listener exists so the initial workers
        # do not inherit (and keep alive) the daemon's socket descriptors.
        self._pool = ResidentPool(
            self.worker_count, start_method=self._start_method
        ).start()
        path = Path(self.socket_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()  # a stale socket from a dead daemon
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(128)
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="daemon-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until the daemon has fully shut down.

        Shutdown is triggered elsewhere: a client ``shutdown`` frame, a
        signal handler calling :meth:`request_shutdown`, or a direct
        :meth:`shutdown` call from another thread.
        """
        self._stopped.wait()

    def request_shutdown(self) -> None:
        """Trigger a graceful drain-and-exit without blocking (idempotent).

        Safe to call from a signal handler: the actual drain runs on its
        own thread.
        """
        if self._stop_requested.is_set():
            return
        self._stop_requested.set()
        threading.Thread(target=self.shutdown, daemon=True).start()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting, drain (or kill) the fleet, remove the socket."""
        with self._shutdown_guard:
            if self._shut_down:
                self._stopped.wait()
                return
            self._shut_down = True
        self._stop_requested.set()
        with self._lock:
            self._draining = True
        if self._listener is not None:
            try:
                self._listener.close()  # unblocks the accept loop
            except OSError:
                pass
        try:
            if self._pool is not None:
                # Draining completes every admitted job; the completion
                # callbacks deliver results to still-connected clients.
                # Re-raises a callback's exception, after the fleet stopped.
                self._pool.shutdown(drain=drain, timeout=timeout)
        finally:
            with self._lock:
                clients = list(self._clients)
                self._clients.clear()
            for client in clients:
                client.close()
            try:
                Path(self.socket_path).unlink()
            except OSError:
                pass
            self._stopped.set()

    # -- accept/serve ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            client = _ClientConnection(sock)
            with self._lock:
                if self._draining:
                    client.send(
                        {"type": "rejected", "reason": "daemon is shutting down"}
                    )
                    client.close()
                    continue
                self._counters["connections"] += 1
                self._clients.add(client)
            threading.Thread(
                target=self._serve_client, args=(client,), daemon=True
            ).start()

    def _serve_client(self, client: _ClientConnection) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(client.sock)
                except ProtocolError as exc:
                    # The stream's framing is gone; answer once and hang up
                    # on THIS client only.
                    with self._lock:
                        self._counters["protocol_errors"] += 1
                    client.send({"type": "error", "error": f"malformed frame: {exc}"})
                    return
                except OSError:
                    return  # connection torn down (possibly by our shutdown)
                if frame is None:
                    return  # clean disconnect
                self._dispatch(client, frame)
        finally:
            self._detach(client)

    def _detach(self, client: _ClientConnection) -> None:
        """Forget a disconnected client; its jobs keep running cache-bound."""
        client.close()
        with self._lock:
            self._clients.discard(client)
            for track in self._tracks.values():
                if track.client is client:
                    track.client = None
                for follower in track.followers:
                    if follower.client is client:
                        follower.client = None

    # -- request dispatch ------------------------------------------------------

    def _dispatch(self, client: _ClientConnection, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "submit":
            self._handle_submit(client, frame)
        elif kind == "health":
            client.send(self._health_frame())
        elif kind == "stats":
            client.send(self._stats_frame())
        elif kind == "metrics":
            client.send(self._metrics_frame())
        elif kind == "shutdown":
            client.send({"type": "ok"})
            self.request_shutdown()
        else:
            client.send(
                {"type": "error", "error": f"unknown request type {kind!r}"}
            )

    def _handle_submit(self, client: _ClientConnection, frame: dict) -> None:
        specs = frame.get("jobs")
        if not isinstance(specs, list) or not specs or not all(
            isinstance(spec, dict) for spec in specs
        ):
            client.send(
                {"type": "error", "error": "submit needs a non-empty list of job objects"}
            )
            return
        wait = bool(frame.get("wait", True))
        stream = bool(frame.get("stream", False))

        # Frame-level rejections: duplicate ids and admission control.
        # Both are checked before any term is parsed, so a rejected frame
        # costs near nothing and changes no daemon state.
        explicit_ids = [str(spec["id"]) for spec in specs if spec.get("id")]
        duplicate_ids = sorted(
            {job_id for job_id in explicit_ids if explicit_ids.count(job_id) > 1}
        )
        with self._lock:
            if not duplicate_ids:
                duplicate_ids = sorted(
                    job_id for job_id in explicit_ids if job_id in self._tracks
                )
            if duplicate_ids:
                self._counters["rejected"] += len(specs)
                client.send(
                    {
                        "type": "rejected",
                        "reason": (
                            "duplicate job ids: "
                            + ", ".join(duplicate_ids)
                            + " — ids must be unique per daemon at any moment"
                        ),
                    }
                )
                return
            if self._draining:
                self._counters["rejected"] += len(specs)
                client.send({"type": "rejected", "reason": "daemon is draining"})
                return
            if self._pending + len(specs) > self.max_pending:
                self._counters["rejected"] += len(specs)
                client.send(
                    {
                        "type": "rejected",
                        "reason": (
                            f"admission control: {self._pending} job(s) pending, "
                            f"{len(specs)} submitted, limit {self.max_pending}"
                        ),
                    }
                )
                return
            self._counters["submitted"] += len(specs)

        # Build jobs outside the lock (parsing can be arbitrarily large).
        # A spec that fails to build is isolated as one immediately-FAILED
        # job, exactly like the batch CLI treats an unreadable file.
        jobs: List[Optional[SynthesisJob]] = []
        job_ids: List[str] = []
        immediate: List[JobResult] = []
        for index, spec in enumerate(specs):
            name = str(spec.get("name") or f"job-{index}")
            raw_id = spec.get("id")
            job_id = str(raw_id) if raw_id else f"d{next(self._ids)}:{name}"
            job_ids.append(job_id)
            try:
                jobs.append(self._build_job(spec, name, job_id))
            except Exception:
                jobs.append(None)
                immediate.append(
                    JobResult(
                        job_id=job_id,
                        name=name,
                        status=JobStatus.FAILED,
                        error=traceback.format_exc(),
                    )
                )

        # Admit: probe the shared cache, coalesce onto in-flight twins,
        # queue the rest — atomically with respect to completions AND
        # shutdown.  The pool submit happens inside the same critical
        # section as track registration: shutdown() sets ``_draining``
        # under this lock before stopping the pool, so a job admitted here
        # is guaranteed to reach the pool before any drain begins — an
        # "accepted" frame always means "will run (or be drained)".
        submit_failures: List[SynthesisJob] = []
        with self._lock:
            for job in jobs:
                if job is None:
                    continue
                key = cache_key(job.term, job.config)
                semantic_key = (
                    semantic_cache_key(job.term, job.config)
                    if self.cache is not None and self.cache.semantic
                    else None
                )
                if self.cache is not None:
                    lookup_start = time.perf_counter()
                    payload, tier = self.cache.lookup(key, semantic_key)
                    if payload is not None:
                        self._counters["cache_hits"] += 1
                        self._counters[f"{tier}_hits"] += 1
                        self._counters["completed"] += 1
                        self._counters["succeeded"] += 1
                        # A hit's end-to-end latency is the lookup itself.
                        self.metrics.ingest(
                            model=job.name,
                            seconds=time.perf_counter() - lookup_start,
                            cache_tier=tier,
                        )
                        immediate.append(
                            JobResult(
                                job_id=job.job_id,
                                name=job.name,
                                status=JobStatus.SUCCEEDED,
                                result=SynthesisResult.from_dict(payload),
                                result_payload=payload,
                                cached=True,
                                cache_tier=tier,
                            )
                        )
                        continue
                track = _Track(
                    job=job,
                    client=client,
                    wait=wait,
                    stream=stream,
                    key=key,
                    semantic_key=semantic_key,
                )
                primary_id = self._by_key.get(key)
                if primary_id is not None:
                    self._tracks[primary_id].followers.append(track)
                    self._counters["coalesced"] += 1
                    self._pending += 1
                    continue
                self._tracks[job.job_id] = track
                self._by_key[key] = job.job_id
                self._pending += 1
                try:
                    self._pool.submit(job, self._on_result, self._on_event)
                except RuntimeError:
                    # A force (non-drain) stop can still slip in; fail the
                    # job explicitly instead of leaving the client waiting.
                    # The callback takes this lock, so it runs below.
                    submit_failures.append(job)

        client.send({"type": "accepted", "job_ids": job_ids})
        if wait:
            for result in immediate:
                client.send({"type": "result", "job": result.to_dict()})
        for job in submit_failures:
            self._on_result(
                job,
                JobResult(
                    job_id=job.job_id,
                    name=job.name,
                    status=JobStatus.FAILED,
                    error="daemon shut down before the job could run",
                ),
            )

    def _build_job(self, spec: dict, name: str, job_id: str) -> SynthesisJob:
        """One SynthesisJob from a wire spec (raises on any invalid field)."""
        from repro.csg.parser import parse_csg

        term_text = spec.get("term")
        if not isinstance(term_text, str) or not term_text.strip():
            raise ValueError("job spec needs a non-empty 'term' (flat CSG text)")
        term = parse_csg(term_text, strict=False)
        config_dict = spec.get("config")
        config = (
            SynthesisConfig.from_dict(config_dict)
            if config_dict is not None
            else SynthesisConfig()
        )
        timeout = spec.get("timeout", self.default_timeout)
        job = SynthesisJob(
            name=name,
            term=term,
            config=config,
            priority=int(spec.get("priority", 0)),
            timeout=float(timeout) if timeout is not None else None,
            trace=self.trace_jobs,
            job_id=job_id,
        )
        # Same identity rule as the batch service: a timeout that clamps
        # the fuel is part of the cache key.
        return SynthesisService._normalize(job)

    # -- completion plumbing (runs on the pool's scheduler thread) -------------

    def _on_event(self, event: JobEvent) -> None:
        with self._lock:
            track = self._tracks.get(event.job_id)
            target = track.client if track is not None and track.stream else None
        if target is not None:
            target.send(
                {
                    "type": "event",
                    "kind": event.kind,
                    "job_id": event.job_id,
                    "name": event.name,
                    "seconds": event.seconds,
                    "message": event.message,
                }
            )

    def _on_result(self, job: SynthesisJob, result: JobResult) -> None:
        with self._lock:
            track = self._tracks.pop(job.job_id, None)
            if track is None:  # pragma: no cover - every submitted job has a track
                return
            self._by_key.pop(track.key, None)
            followers = track.followers
            self._pending -= 1 + len(followers)
            self._count_completion(result, copies=1 + len(followers))
            self.metrics.ingest(
                model=job.name, seconds=result.seconds, trace=result.trace
            )
            for follower in followers:
                if not result.ok:
                    continue
                # A coalesced duplicate's effective latency is the primary
                # execution it waited on.
                self.metrics.ingest(
                    model=follower.job.name,
                    seconds=result.seconds,
                    cache_tier="batch",
                )
            if result.ok and self.cache is not None:
                payload = result.result_payload or result.result.to_dict()
                self.cache.put(track.key, payload, track.semantic_key)
        self._write_trace(result)
        if track.wait and track.client is not None:
            track.client.send({"type": "result", "job": result.to_dict()})
        for follower in followers:
            follower_result = SynthesisService._follower_result(follower.job, result)
            if follower.wait and follower.client is not None:
                follower.client.send(
                    {"type": "result", "job": follower_result.to_dict()}
                )

    def _count_completion(self, result: JobResult, copies: int) -> None:
        """Counter upkeep for a finished job and its coalesced copies."""
        self._counters["completed"] += copies
        if result.ok:
            self._counters["succeeded"] += copies
        elif result.status is JobStatus.TIMEOUT:
            self._counters["timeout"] += copies
        else:
            self._counters["failed"] += copies

    def _write_trace(self, result: JobResult) -> None:
        """Append a finished job's spans to the JSONL trace file, if any."""
        if self.trace_path is None or not result.trace:
            return
        lines = span_lines(result.job_id, result.name, result.trace)
        try:
            with self._trace_lock:
                write_trace_jsonl(self.trace_path, lines)
        except OSError:  # pragma: no cover - tracing must never sink a job
            pass

    # -- observability ---------------------------------------------------------

    def _observability_frame(self, kind: str) -> dict:
        """One atomic snapshot of every mutable counter the frame reports.

        Queue depth, the in-flight map, job counters, cache counters, and
        the latency histograms all mutate under ``_lock`` as jobs are
        scheduled and completed; reading them in separate critical sections
        could tear — e.g. a ``completed`` count that already includes a job
        whose queue-depth decrement it doesn't.  Everything is therefore
        snapshotted in a single critical section.  Taking the pool snapshot
        inside the daemon lock follows the established lock order (daemon
        lock → pool lock, as in ``_handle_submit``'s admission section).
        """
        with self._lock:
            workers = self._pool.snapshot() if self._pool is not None else {}
            jobs = dict(self._counters)
            pending = self._pending
            draining = self._draining
            if kind == "stats":
                clients = len(self._clients)
                in_flight_keys = len(self._by_key)
                latency = self.metrics.snapshot()
                # The full cache counter set (stats() walks the disk tier,
                # so it lives on the heavyweight endpoint, not in health).
                cache = self.cache.stats() if self.cache is not None else None
            else:
                cache = (
                    {
                        "exact_hits": self.cache.exact_hits,
                        "semantic_hits": self.cache.semantic_hits,
                        "misses": self.cache.misses,
                        "stores": self.cache.stores,
                        "hit_rate": self.cache.hit_rate,
                    }
                    if self.cache is not None
                    else None
                )
        frame = {
            "type": kind,
            "ok": True,
            "draining": draining,
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "socket": self.socket_path,
            "pending": pending,
            "max_pending": self.max_pending,
            "queue_depth": workers.get("queue_depth", 0),
            "running": workers.get("busy", 0),
            "workers": workers,
            "jobs": jobs,
            "cache": cache,
        }
        if kind == "stats":
            frame["clients"] = clients
            frame["in_flight_keys"] = in_flight_keys
            frame["trace_jobs"] = self.trace_jobs
            frame["trace_path"] = str(self.trace_path) if self.trace_path else None
            frame["latency"] = latency
        return frame

    def _health_frame(self) -> dict:
        return self._observability_frame("health")

    def _stats_frame(self) -> dict:
        return self._observability_frame("stats")

    def _metrics_frame(self) -> dict:
        """The metrics families as Prometheus exposition text.

        Rendered in one critical section, like the stats frame, so the
        scraped buckets are a consistent snapshot.
        """
        with self._lock:
            text = render_prometheus(self.metrics)
        return {"type": "metrics", "content_type": "text/plain; version=0.0.4", "text": text}
