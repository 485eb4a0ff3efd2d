"""Process-parallel execution of synthesis jobs.

The unit of execution is :func:`execute_payload`: a pure function from a
job's JSON-able payload to a JSON-able outcome dict.  It never raises — any
exception inside the pipeline is captured as a ``"failed"`` outcome with the
full traceback — so the contract between parent and worker is "a dict always
comes back (unless the process itself died)".

:class:`ResidentPool` is the one worker pool.  It keeps ``worker_count``
long-lived worker processes and streams job payloads to them over duplex
pipes, so interpreter/import startup is paid once per worker, not once per
job.  A resident scheduler thread accepts submissions at any time and
reports each completion through per-job callbacks.  The daemon keeps one
pool for its lifetime; a pooled batch (``SynthesisService`` with
``worker_count >= 1``) starts one, submits its misses and drains it.  A
worker that dies mid-job (crash, segfault, or a hard timeout kill) takes
down only the job it was running: the job is reported FAILED/TIMEOUT and a
replacement worker is spawned.  Process state outlives a *successful*
job, which is safe because synthesis results do not depend on earlier
jobs in the same process (``perfbench/run.py --check`` synthesizes every
Table 1 model in one process against the golden top-k).

:func:`run_jobs_inline` is the zero-process executor used for ``--jobs 0``
(and by unit tests): same scheduling order and error capture, but timeouts
are only honored cooperatively (the config's ``max_seconds`` fuel is
clamped) since there is no process to kill.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob
from repro.service.queue import JobQueue

#: Event callback signature: receives every JobEvent the executor emits.
EventCallback = Callable[[JobEvent], None]
#: Per-job completion callback: receives the job and its final JobResult.
ResultCallback = Callable[[SynthesisJob, JobResult], None]


def execute_payload(payload: dict) -> dict:
    """Run one job payload to completion; always returns an outcome dict.

    Outcomes are ``{"job_id", "name", "seconds", "status": "succeeded",
    "result": <SynthesisResult.to_dict()>}`` or ``{"status": "failed",
    "error": <traceback text>}``.  When the payload carries ``"trace": True``
    the job runs under a fresh :class:`repro.obs.trace.Tracer` (a root
    ``job`` span over ``parse`` and the pipeline phases) and the outcome
    gains ``"trace": <exported span list>``.  Imports are deliberately local
    so a freshly spawned worker only pays for the pipeline once it actually
    runs.
    """
    import traceback

    start = time.perf_counter()
    base = {"job_id": payload["job_id"], "name": payload["name"]}
    try:
        from repro.core.config import SynthesisConfig
        from repro.core.pipeline import synthesize
        from repro.lang.canon import term_from_canonical
        from repro.obs.trace import NULL_TRACER, Tracer

        tracer = Tracer() if payload.get("trace") else NULL_TRACER
        with tracer.span("job", {"job_id": payload["job_id"], "name": payload["name"]}):
            with tracer.span("parse"):
                term = term_from_canonical(payload["term"])
            config = SynthesisConfig.from_dict(payload["config"])
            timeout = payload.get("timeout")
            if timeout is not None:
                # Cooperative deadline: the saturation fuel cannot exceed the
                # job's budget.  The hard deadline (process kill) is the pool's.
                config = replace(config, max_seconds=min(config.max_seconds, timeout))
            result = synthesize(term, config, tracer=tracer)
        outcome = {
            **base,
            "status": "succeeded",
            "seconds": time.perf_counter() - start,
            "result": result.to_dict(),
        }
        if tracer.enabled:
            outcome["trace"] = tracer.export()
        return outcome
    except Exception:
        return {
            **base,
            "status": "failed",
            "seconds": time.perf_counter() - start,
            "error": traceback.format_exc(),
        }


def _persistent_worker_loop(conn) -> None:
    """Long-lived worker entry point: serve payloads until told to stop.

    The protocol is strictly request/response over one duplex pipe: the
    parent sends a payload dict, the worker answers with exactly one
    outcome dict.  ``None`` (or a closed pipe) is the shutdown signal.
    """
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        try:
            outcome = execute_payload(payload)
        except BaseException:  # pragma: no cover - execute_payload already catches
            import traceback

            outcome = {
                "job_id": payload.get("job_id", "?"),
                "name": payload.get("name", "?"),
                "status": "failed",
                "seconds": 0.0,
                "error": traceback.format_exc(),
            }
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _pick_context():
    """The multiprocessing context for worker processes.

    Fork (where available) keeps per-job startup cheap: the child inherits
    the already-imported pipeline instead of re-importing.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else methods[0])


def _spawn_worker(context) -> "_PersistentWorker":
    """Start one long-lived worker process fed over a duplex pipe."""
    parent_conn, child_conn = context.Pipe(duplex=True)
    process = context.Process(
        target=_persistent_worker_loop, args=(child_conn,), daemon=True
    )
    process.start()
    child_conn.close()
    return _PersistentWorker(process=process, conn=parent_conn)


def _result_from_outcome(job: SynthesisJob, outcome: dict, seconds: float) -> JobResult:
    """Convert a worker outcome dict into a JobResult."""
    from repro.core.pipeline import SynthesisResult

    if outcome["status"] == "succeeded":
        return JobResult(
            job_id=job.job_id,
            name=job.name,
            status=JobStatus.SUCCEEDED,
            result=SynthesisResult.from_dict(outcome["result"]),
            seconds=seconds,
            result_payload=outcome["result"],
            trace=outcome.get("trace"),
        )
    return JobResult.failure(
        job.job_id,
        job.name,
        outcome.get("error", "worker reported failure without a traceback"),
        seconds=seconds,
    )


def _emit(on_event: Optional[EventCallback], event: JobEvent) -> None:
    if on_event is not None:
        on_event(event)


def run_jobs_inline(
    jobs: Sequence[SynthesisJob],
    on_event: Optional[EventCallback] = None,
    on_result: Optional[ResultCallback] = None,
) -> Dict[str, JobResult]:
    """Execute jobs in this process, in scheduling order, with error capture.

    As each job ends, its event fires and then ``on_result``, which fires
    even when the event callback raised (as on a :class:`ResidentPool`).
    """
    results: Dict[str, JobResult] = {}
    for job in JobQueue(jobs).drain():
        _emit(on_event, JobEvent("start", job.job_id, job.name))
        start = time.perf_counter()
        outcome = execute_payload(job.payload())
        elapsed = time.perf_counter() - start
        result = _result_from_outcome(job, outcome, elapsed)
        results[job.job_id] = result
        kind = "done" if result.ok else "failed"
        try:
            _emit(on_event, JobEvent(kind, job.job_id, job.name, elapsed, result.error_summary()))
        finally:
            if on_result is not None:
                on_result(job, result)
    return results


@dataclass
class _PersistentWorker:
    """One long-lived worker process and the job it is currently running."""

    process: multiprocessing.process.BaseProcess
    conn: object
    job: Optional[SynthesisJob] = None
    started: float = 0.0
    deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.job is not None

    def assign(self, job: SynthesisJob) -> None:
        self.job = job
        self.started = time.perf_counter()
        self.deadline = self.started + job.timeout if job.timeout is not None else None
        self.conn.send(job.payload())

    def kill(self) -> None:
        """Terminate the process at once and release its pipe."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Best-effort graceful stop, then force."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=1.0)
        self.kill()


@dataclass
class _Submission:
    """One submitted job and where its progress/outcome should be reported."""

    job: SynthesisJob
    on_result: ResultCallback
    on_event: Optional[EventCallback]


class ResidentPool:
    """A long-lived worker fleet serving jobs submitted one at a time.

    A resident scheduler thread accepts submissions from any thread at any
    time, hands them to idle workers in queue order (priority desc, then
    FIFO), and reports each completion through the submission's own
    callbacks.  A worker that crashes, raises, or blows its deadline costs
    only the job it was running — the job is reported FAILED/TIMEOUT, a
    replacement worker is spawned, and the fleet keeps serving everything
    else.

    Callbacks run on the scheduler thread with no pool lock held, so they
    may call back into the pool (e.g. submit follow-up work), but they must
    not block for long — every worker's results flow through this one
    thread.  The first callback that raises force-stops the pool (as
    ``shutdown(drain=False)`` would), and :meth:`shutdown` re-raises its
    exception once.

    ``shutdown(drain=True)`` stops admissions, finishes every queued and
    in-flight job (callbacks included), then stops the workers;
    ``drain=False`` kills the fleet immediately and fails outstanding jobs.
    """

    #: Consecutive idle-death assignment failures tolerated per job before
    #: it is reported FAILED instead of retried on a fresh worker.
    _MAX_ASSIGN_ATTEMPTS = 3

    def __init__(self, worker_count: int):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1 (use run_jobs_inline for 0)")
        self.worker_count = worker_count
        self._context = _pick_context()
        #: Lifetime counters (read via :meth:`snapshot`): processes started,
        #: mid-job deaths, deadline kills, replacements after either.
        self.workers_spawned = 0
        self.crashes = 0
        self.timeouts = 0
        self.respawns = 0
        self.jobs_completed = 0
        self._lock = threading.Lock()
        self._queue = JobQueue()
        self._submissions: Dict[str, _Submission] = {}
        self._assign_failures: Dict[str, int] = {}
        self._crew: List[_PersistentWorker] = []
        self._stopping = False
        self._drain = True
        #: The first exception a callback raised; :meth:`shutdown` re-raises it.
        self._callback_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        # Self-pipe: submit()/shutdown() nudge the scheduler out of its
        # connection_wait so new work is assigned without polling.
        self._wake_recv, self._wake_send = socket.socketpair()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ResidentPool":
        """Spawn the worker crew and the scheduler thread."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("ResidentPool is already started")
            self._crew = [self._spawn() for _ in range(self.worker_count)]
            self._thread = threading.Thread(
                target=self._loop, name="resident-pool", daemon=True
            )
            self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool.

        ``drain=True`` completes every queued and running job first (their
        callbacks fire as usual); ``drain=False`` terminates the fleet and
        fails outstanding jobs immediately.  Idempotent, except that the
        first call after a callback raised re-raises that exception.
        """
        with self._lock:
            thread = self._thread
            self._stopping = True
            self._drain = self._drain and drain
        if thread is None:
            return
        self._wake()
        thread.join(timeout)
        with self._lock:
            error, self._callback_error = self._callback_error, None
        if error is not None:
            raise error

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        job: SynthesisJob,
        on_result: ResultCallback,
        on_event: Optional[EventCallback] = None,
    ) -> None:
        """Enqueue one job; ``on_result`` fires exactly once when it ends."""
        with self._lock:
            if self._thread is None or self._stopping:
                raise RuntimeError("ResidentPool is not serving")
            if job.job_id in self._submissions:
                raise ValueError(f"job id {job.job_id!r} is already in flight")
            self._queue.push(job)
            self._submissions[job.job_id] = _Submission(job, on_result, on_event)
        self._wake()

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """A JSON-able counter snapshot (what the daemon's health embeds)."""
        with self._lock:
            return {
                "configured": self.worker_count,
                "alive": sum(1 for w in self._crew if w.process.is_alive()),
                "busy": sum(1 for w in self._crew if w.busy),
                "queue_depth": len(self._queue),
                "spawned": self.workers_spawned,
                "crashes": self.crashes,
                "timeouts": self.timeouts,
                "respawns": self.respawns,
                "completed": self.jobs_completed,
            }

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- scheduler loop --------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except OSError:  # racing a teardown; the loop is already exiting
            pass

    def _loop(self) -> None:
        while True:
            actions: List[Callable[[], None]] = []
            with self._lock:
                # Draining still assigns queued work; a force-stop does not.
                if not self._stopping or self._drain:
                    self._assign_ready(actions)
            self._fire(actions)
            with self._lock:
                busy = [w for w in self._crew if w.busy]
                if self._stopping and (
                    not self._drain or (not busy and not self._queue)
                ):
                    break

            deadlines = [w.deadline for w in busy if w.deadline is not None]
            timeout = (
                max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None
            )
            conns = [w.conn for w in busy] + [self._wake_recv]
            ready = set(connection_wait(conns, timeout))
            if self._wake_recv in ready:
                try:
                    self._wake_recv.recv(65536)
                except OSError:
                    pass

            now = time.perf_counter()
            actions = []
            with self._lock:
                for worker in busy:
                    if worker.conn in ready:
                        self._collect_resident(worker, now, actions)
                    elif worker.deadline is not None and now >= worker.deadline:
                        self._expire_resident(worker, now, actions)
            self._fire(actions)
        self._teardown()

    def _fire(self, actions: List[Callable[[], None]]) -> None:
        """Fire queued callbacks (lock not held).

        Every callback runs even when an earlier one raised, so each job
        still gets its result; the first exception force-stops the pool and
        is kept for :meth:`shutdown` to re-raise.
        """
        for action in actions:
            try:
                action()
            except BaseException as exc:  # re-raised by shutdown()
                with self._lock:
                    if self._callback_error is None:
                        self._callback_error = exc
                    self._stopping = True
                    self._drain = False

    def _assign_ready(self, actions: List[Callable[[], None]]) -> None:
        """Hand queued jobs to idle workers (lock held)."""
        while self._queue:
            worker = next((w for w in self._crew if not w.busy), None)
            if worker is None:
                return
            job = self._queue.pop()
            try:
                worker.assign(job)
            except (BrokenPipeError, OSError):
                # The worker died while *idle*: the job never started, so
                # retry it on a replacement (bounded — if fresh workers keep
                # dying on arrival, fail the job rather than spin).  The job
                # is re-queued before the worker is replaced, so a draining
                # pool still sees work and respawns.
                worker.job = None
                self.crashes += 1
                failures = self._assign_failures.get(job.job_id, 0) + 1
                self._assign_failures[job.job_id] = failures
                if failures >= self._MAX_ASSIGN_ATTEMPTS:
                    self._finish(
                        job,
                        JobResult.failure(
                            job.job_id,
                            job.name,
                            "persistent worker died before accepting the "
                            f"job ({failures} attempts)",
                        ),
                        actions,
                    )
                else:
                    self._queue.push(job)
                self._replace(worker)
                continue
            on_event = self._submissions[job.job_id].on_event
            if on_event is not None:
                event = JobEvent("start", job.job_id, job.name)
                actions.append(lambda cb=on_event, e=event: cb(e))

    def _collect_resident(
        self, worker: _PersistentWorker, now: float, actions: List[Callable[[], None]]
    ) -> None:
        """A busy worker's pipe is readable: an outcome, or it died (lock held).

        A dying worker can surface as ``EOFError`` *or* as ``OSError``
        (e.g. ECONNRESET on the pipe) depending on how the kernel tears the
        connection down — both mean the same thing: no outcome is coming.
        """
        job = worker.job
        elapsed = now - worker.started
        try:
            outcome = worker.conn.recv()
        except (EOFError, OSError):
            outcome = None
        if outcome is None:
            self.crashes += 1
            self._replace(worker)
            result = JobResult.failure(
                job.job_id,
                job.name,
                f"persistent worker died without reporting "
                f"(exit code {worker.process.exitcode})",
                seconds=elapsed,
            )
        else:
            worker.job = None
            worker.deadline = None
            # Prefer the worker's own timing (excludes dispatch overhead).
            result = _result_from_outcome(job, outcome, outcome.get("seconds", elapsed))
        self._finish(job, result, actions)

    def _expire_resident(
        self, worker: _PersistentWorker, now: float, actions: List[Callable[[], None]]
    ) -> None:
        """Hard deadline: kill the worker, report TIMEOUT (lock held)."""
        job = worker.job
        self.timeouts += 1
        self._replace(worker)
        self._finish(
            job,
            JobResult.failure(
                job.job_id,
                job.name,
                f"killed after exceeding the {job.timeout:g}s job timeout",
                status=JobStatus.TIMEOUT,
                seconds=now - worker.started,
            ),
            actions,
        )

    def _replace(self, worker: _PersistentWorker) -> None:
        """Kill a dead/expired worker; keep the fleet at strength (lock held)."""
        worker.kill()
        self._crew.remove(worker)
        # A resident fleet must stay at strength for traffic that has not
        # arrived yet — respawn unless the pool is on its way down with no
        # queued work left.
        if not self._stopping or self._queue:
            self._crew.append(self._spawn())
            self.respawns += 1

    def _spawn(self) -> _PersistentWorker:
        self.workers_spawned += 1
        return _spawn_worker(self._context)

    def _finish(
        self, job: SynthesisJob, result: JobResult, actions: List[Callable[[], None]]
    ) -> None:
        """Queue the completion callbacks for one ended job (lock held)."""
        submission = self._submissions.pop(job.job_id, None)
        self._assign_failures.pop(job.job_id, None)
        self.jobs_completed += 1
        if submission is None:  # pragma: no cover - submissions are never dropped
            return
        if submission.on_event is not None:
            if result.status is JobStatus.TIMEOUT:
                kind = "timeout"
            else:
                kind = "done" if result.ok else "failed"
            event = JobEvent(
                kind, job.job_id, job.name, result.seconds, result.error_summary()
            )
            actions.append(lambda cb=submission.on_event, e=event: cb(e))
        actions.append(lambda cb=submission.on_result, j=job, r=result: cb(j, r))

    def _teardown(self) -> None:
        """Stop the fleet; fail anything still outstanding (force stop only)."""
        actions: List[Callable[[], None]] = []
        with self._lock:
            crew, self._crew = self._crew, []
            for worker in crew:
                job = worker.job
                if job is not None:
                    self._finish(
                        job,
                        JobResult.failure(
                            job.job_id,
                            job.name,
                            "resident pool shut down while the job was running",
                        ),
                        actions,
                    )
            while self._queue:
                job = self._queue.pop()
                self._finish(
                    job,
                    JobResult.failure(
                        job.job_id, job.name, "resident pool shut down before the job ran"
                    ),
                    actions,
                )
        # A busy worker is mid-job and would not read the stop message.
        for worker in crew:
            if worker.busy:
                worker.kill()
            else:
                worker.shutdown()
        self._fire(actions)
        self._wake_recv.close()
        self._wake_send.close()
