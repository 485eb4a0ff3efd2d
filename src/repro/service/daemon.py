"""The resident synthesis daemon: one warm engine serving many clients.

:class:`SynthesisDaemon` puts one long-lived
:class:`~repro.service.service.SynthesisService` behind a Unix-domain
socket speaking the length-prefixed JSON frame protocol of
:mod:`repro.service.protocol`.  Every job, whichever client sent it, takes
that service's admission path, the one ``batch``/``table1`` take: its
shared cache (exact + semantic tiers, so client B's first request rides
client A's warm entry), its in-flight coalescing (``cache_tier="batch"``),
and its :class:`~repro.service.worker.ResidentPool`, started with the
daemon, where a worker that crashes, raises, or blows its deadline costs
only the job it was running.  The daemon itself keeps only:

* **the socket and its frames** — one thread per connection; a job's
  ``result`` (and, for ``stream`` submissions, ``event``) frames go to the
  connection that submitted it;
* **admission control** — at most ``max_pending`` admitted-but-unfinished
  jobs, ids (explicit or generated) unique among them, nothing admitted
  while draining; a submission that breaks a rule gets one ``rejected``
  frame and enqueues nothing, so a traffic spike degrades into fast
  rejections instead of an unbounded backlog;
* **its job counters** — served with the service's worker, cache and
  latency counters in ``health`` and ``stats`` frames (with ``trace_jobs``,
  the default, the latency section has per-phase p50/p95/p99, which
  ``szalinski stats --percentiles`` renders);
* **the trace file** — with ``trace_path`` set, every finished job's spans
  are appended as JSONL (``szalinski trace`` converts it for Perfetto).

Failure containment at the wire: a client that sends a malformed frame is
answered with one ``error`` frame and has *its* connection closed; a
client that disconnects mid-job detaches from its jobs while they run on
(and still populate the cache); a client that stops reading is hung up on
once a send to it has blocked for ``_SEND_TIMEOUT`` seconds.  Graceful
shutdown (``shutdown`` frame, :meth:`SynthesisDaemon.request_shutdown`, or
the CLI's SIGTERM handler) stops admissions, drains every in-flight and
queued job — waiting clients get their results — then stops the fleet and
removes the socket.  No frame is sent while the daemon's lock is held.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.core.config import SynthesisConfig
from repro.obs.export import span_lines, write_trace_jsonl
from repro.service.cache import ResultCache
from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob, check_timeout
from repro.service.protocol import ProtocolError, recv_frame, send_frame
from repro.service.service import SynthesisService

#: Seconds one frame send may block on a client that stopped reading before
#: the daemon hangs up on it, so such a client holds up neither an admission
#: (and with it a drain) nor the pool thread that answers completions.
_SEND_TIMEOUT = 30


class _ClientConnection:
    """One accepted client socket plus its serialized-send bookkeeping."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        # SO_SNDTIMEO bounds sends only; a socket timeout would also cut the
        # blocking read that waits for an idle client's next frame.
        timeval = struct.pack("ll", _SEND_TIMEOUT, 0)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
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
                # A timed-out send can leave half a frame on the wire: hang
                # up, so the peer and this connection's reader see the end.
                self.close()

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
    """One admitted job: the connection waiting on it and what it asked for."""

    client: Optional[_ClientConnection]
    wait: bool
    stream: bool


class SynthesisDaemon:
    """A resident synthesis engine behind a Unix-domain socket."""

    def __init__(
        self,
        socket_path,
        worker_count: int = 2,
        cache: Optional[ResultCache] = None,
        max_pending: int = 256,
        default_timeout: Optional[float] = None,
        trace_jobs: bool = True,
        trace_path=None,
    ):
        if worker_count < 1:
            raise ValueError("the daemon needs at least one worker")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        check_timeout(default_timeout)
        self.socket_path = str(socket_path)
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        #: Run every executed job with per-phase span tracing so the stats
        #: frame can serve per-phase percentiles.  The trace flag is not part
        #: of the cache identity and the spans stay out of wire frames, so
        #: the only cost is the tracer's bookkeeping inside the worker.
        self.trace_jobs = trace_jobs
        #: When set, every finished job's spans are appended here as JSONL
        #: (one span per line); ``szalinski trace`` converts the file to
        #: Chrome trace_event JSON for Perfetto.
        self.trace_path = Path(trace_path) if trace_path is not None else None
        #: Serializes JSONL appends from concurrent completion callbacks.
        self._trace_lock = threading.Lock()
        #: Keys, probes, coalesces, runs and stores every admitted job.
        self.service = SynthesisService(
            worker_count=worker_count,
            cache=cache,
            on_event=lambda event: self._on_event(event),
            trace=trace_jobs,
        )

        #: Guards tracks, counters, clients and the draining flag.
        self._lock = threading.Lock()
        #: Notified when the last admission in progress has reached the
        #: service, so a drain never begins under an accepted job.
        self._admissions_done = threading.Condition(self._lock)
        self._admitting = 0
        self._tracks: Dict[str, _Track] = {}
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
            "coalesced": 0,  # the service's count, copied into each frame
            "semantic_keys": 0,  # likewise: keys looked up, one per exact miss
            "rejected": 0,
            "protocol_errors": 0,
            "connections": 0,
        }
        self._clients: Set[_ClientConnection] = set()
        self._ids = itertools.count(1)

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
        if self._started_at is not None:
            raise RuntimeError("daemon already started")
        # The fleet forks before the listener exists so the initial workers
        # do not inherit (and keep alive) the daemon's socket descriptors.
        self.service.start()
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
            # Every job answered "accepted" reaches the service first.
            while self._admitting:
                self._admissions_done.wait()
        if self._listener is not None:
            try:
                self._listener.close()  # unblocks the accept loop
            except OSError:
                pass
        try:
            # Draining completes every admitted job; the completion
            # callbacks deliver results to still-connected clients.
            # Re-raises a callback's exception, after the fleet stopped.
            self.service.shutdown(drain=drain, timeout=timeout)
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
                admitted = not self._draining
                if admitted:
                    self._counters["connections"] += 1
                    self._clients.add(client)
            if not admitted:
                client.send({"type": "rejected", "reason": "daemon is shutting down"})
                client.close()
                continue
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

    # -- request dispatch ------------------------------------------------------

    def _dispatch(self, client: _ClientConnection, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "submit":
            self._handle_submit(client, frame)
        elif kind in ("health", "stats"):
            client.send(self._observability_frame(kind))
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
        names = [str(spec.get("name") or f"job-{index}") for index, spec in enumerate(specs)]

        # Frame-level rejections: duplicate ids and admission control.
        # Both are checked before any term is parsed, so a rejected frame
        # costs near nothing and changes no daemon state.  An admitted frame
        # registers its ids and pending slots at once.
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
                reason = (
                    "duplicate job ids: "
                    + ", ".join(duplicate_ids)
                    + " — ids must be unique per daemon at any moment"
                )
            elif self._draining:
                reason = "daemon is draining"
            elif self._pending + len(specs) > self.max_pending:
                reason = (
                    f"admission control: {self._pending} job(s) pending, "
                    f"{len(specs)} submitted, limit {self.max_pending}"
                )
            else:
                reason = None
                job_ids = [
                    str(spec["id"]) if spec.get("id") else self._fresh_id(name, explicit_ids)
                    for spec, name in zip(specs, names)
                ]
                for job_id in job_ids:
                    self._tracks[job_id] = _Track(client, wait, stream)
                self._pending += len(specs)
                self._counters["submitted"] += len(specs)
                self._admitting += 1
            if reason is not None:
                self._counters["rejected"] += len(specs)
        if reason is not None:
            client.send({"type": "rejected", "reason": reason})
            return

        build_failures: List[JobResult] = []
        try:
            # Build jobs outside the lock (parsing can be arbitrarily
            # large).  A spec that fails to build is isolated as one
            # immediately-FAILED job, exactly like the batch CLI treats an
            # unreadable file.
            jobs: List[SynthesisJob] = []
            for spec, name, job_id in zip(specs, names, job_ids):
                try:
                    jobs.append(self._build_job(spec, name, job_id))
                except Exception:
                    build_failures.append(
                        JobResult.failure(job_id, name, traceback.format_exc())
                    )
            client.send({"type": "accepted", "job_ids": job_ids})
            for job in jobs:
                self.service.submit(job, self._on_result)
        finally:
            with self._lock:
                for failure in build_failures:
                    del self._tracks[failure.job_id]
                self._pending -= len(build_failures)
                self._admitting -= 1
                if not self._admitting:
                    self._admissions_done.notify_all()
        if wait:
            for failure in build_failures:
                client.send({"type": "result", "job": failure.to_dict()})

    def _fresh_id(self, name: str, explicit_ids: List[str]) -> str:
        """A generated id no admitted job and no explicit id uses (lock held)."""
        job_id = f"d{next(self._ids)}:{name}"
        while job_id in self._tracks or job_id in explicit_ids:
            job_id = f"d{next(self._ids)}:{name}"
        return job_id

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
        return SynthesisJob(
            name=name,
            term=term,
            config=config,
            priority=int(spec.get("priority", 0)),
            timeout=float(timeout) if timeout is not None else None,
            job_id=job_id,
        )

    # -- service callbacks -----------------------------------------------------

    def _on_event(self, event: JobEvent) -> None:
        # An answered job has no track: the service answers a cache hit or
        # a coalesced job before its event, so only executions stream.
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
            track = self._tracks.pop(job.job_id)
            self._pending -= 1
            self._counters["completed"] += 1
            if result.ok:
                self._counters["succeeded"] += 1
            elif result.status is JobStatus.TIMEOUT:
                self._counters["timeout"] += 1
            else:
                self._counters["failed"] += 1
            if result.cached and result.cache_tier != "batch":
                self._counters["cache_hits"] += 1
                self._counters[f"{result.cache_tier}_hits"] += 1
        self._write_trace(result)
        if track.wait and track.client is not None:
            track.client.send({"type": "result", "job": result.to_dict()})

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
        """The daemon's counters, read in one critical section so they never
        tear, with the service's snapshot taken inside it."""
        with self._lock:
            jobs = dict(self._counters)
            pending = self._pending
            draining = self._draining
            clients = len(self._clients)
            service = self.service.snapshot(detail=kind == "stats")
        jobs["coalesced"] = service["coalesced"]
        jobs["semantic_keys"] = service["semantic_keys"]
        workers = service["workers"]
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
            "cache": service["cache"],
        }
        if kind == "stats":
            frame["clients"] = clients
            frame["in_flight_keys"] = service["in_flight_keys"]
            frame["trace_jobs"] = self.trace_jobs
            frame["trace_path"] = str(self.trace_path) if self.trace_path else None
            frame["latency"] = service["latency"]
        return frame

    def _metrics_frame(self) -> dict:
        """The latency metrics as Prometheus exposition text."""
        return {
            "type": "metrics",
            "content_type": "text/plain; version=0.0.4",
            "text": self.service.prometheus_text(),
        }
