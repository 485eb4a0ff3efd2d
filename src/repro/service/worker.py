"""Process-parallel execution of synthesis jobs.

The unit of execution is :func:`execute_payload`: a pure function from a
job's JSON-able payload to a JSON-able outcome dict.  It never raises — any
exception inside the pipeline is captured as a ``"failed"`` outcome with the
full traceback — so the contract between parent and worker is "a dict always
comes back (unless the process itself died)".

:class:`WorkerPool` fans payloads out across OS processes, one process per
job (filled up to ``worker_count`` concurrent slots).  A fresh process per
job is the isolation boundary the batch service needs: a job that corrupts
interpreter state, leaks memory, segfaults, or hits its hard timeout takes
down only its own process; the parent reaps the corpse and reports a
failed/timed-out :class:`~repro.service.job.JobResult` while the rest of the
batch keeps running.

With ``persistent=True`` the pool instead keeps ``worker_count`` long-lived
worker processes alive for the duration of the batch and streams job
payloads to them over duplex pipes — amortizing interpreter/import startup
across the whole batch instead of paying it per job.  The crash-isolation
contract is unchanged: a persistent worker that dies mid-job (crash,
segfault, or a hard timeout kill) takes down only the job it was running —
the job is reported FAILED/TIMEOUT and a replacement worker is spawned if
work remains.  Per-process state corruption can now outlive a *successful*
job, which is the deliberate trade: callers who need the strictest
isolation keep the default one-process-per-job mode.

:func:`run_jobs_inline` is the zero-process executor used for ``--jobs 0``
(and by unit tests): same scheduling order and error capture, but timeouts
are only honored cooperatively (the config's ``max_seconds`` fuel is
clamped) since there is no process to kill.

:class:`ResidentPool` is the daemon-facing variant: the same persistent
worker processes, but driven by a resident scheduler thread that accepts
job submissions at any time and reports completions through per-job
callbacks instead of draining one batch and returning.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob
from repro.service.queue import JobQueue

#: Event callback signature: receives every JobEvent the executor emits.
EventCallback = Callable[[JobEvent], None]


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


def _worker_entry(payload: dict, conn) -> None:
    """Child-process entry point: run the payload, ship the outcome back."""
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
    finally:
        conn.close()


def _pick_context(start_method: Optional[str]) -> Tuple[object, str]:
    """The multiprocessing context for worker processes.

    Fork (where available) keeps per-job startup cheap: the child inherits
    the already-imported pipeline instead of re-importing.
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(start_method), start_method


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
    return JobResult(
        job_id=job.job_id,
        name=job.name,
        status=JobStatus.FAILED,
        error=outcome.get("error", "worker reported failure without a traceback"),
        seconds=seconds,
    )


def _emit(on_event: Optional[EventCallback], event: JobEvent) -> None:
    if on_event is not None:
        on_event(event)


def run_jobs_inline(
    jobs: Sequence[SynthesisJob], on_event: Optional[EventCallback] = None
) -> Dict[str, JobResult]:
    """Execute jobs in this process, in scheduling order, with error capture."""
    results: Dict[str, JobResult] = {}
    for job in JobQueue(jobs).drain():
        _emit(on_event, JobEvent("start", job.job_id, job.name))
        start = time.perf_counter()
        outcome = execute_payload(job.payload())
        elapsed = time.perf_counter() - start
        result = _result_from_outcome(job, outcome, elapsed)
        results[job.job_id] = result
        kind = "done" if result.ok else "failed"
        _emit(on_event, JobEvent(kind, job.job_id, job.name, elapsed, result.error_summary()))
    return results


@dataclass
class _Slot:
    """One running worker process and its bookkeeping."""

    job: SynthesisJob
    process: multiprocessing.process.BaseProcess
    conn: object
    started: float
    deadline: Optional[float]


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

    def assign(self, job: SynthesisJob, on_event: Optional[EventCallback]) -> None:
        self.job = job
        self.started = time.perf_counter()
        self.deadline = self.started + job.timeout if job.timeout is not None else None
        self.conn.send(job.payload())
        _emit(on_event, JobEvent("start", job.job_id, job.name))

    def shutdown(self) -> None:
        """Best-effort graceful stop, then force."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


class WorkerPool:
    """Fans jobs out across processes, up to ``worker_count`` at a time.

    ``persistent=True`` switches from one-process-per-job to a fixed crew of
    long-lived workers fed over pipes (see the module docstring for the
    isolation trade-off).
    """

    def __init__(
        self,
        worker_count: int,
        start_method: Optional[str] = None,
        persistent: bool = False,
    ):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1 (use run_jobs_inline for 0)")
        self.worker_count = worker_count
        self.persistent = persistent
        #: Worker processes spawned over the pool's lifetime, in *either*
        #: mode: one per job in the default mode, and in persistent mode
        #: the initial crew plus one per respawn after a crash/timeout
        #: (observable in tests and reports).
        self.workers_spawned = 0
        self._context, self.start_method = _pick_context(start_method)

    # -- driver ----------------------------------------------------------------

    def run(
        self, jobs: Sequence[SynthesisJob], on_event: Optional[EventCallback] = None
    ) -> Dict[str, JobResult]:
        """Run every job; returns results keyed by job id.

        Jobs are dispatched in queue order (priority desc, then FIFO).  The
        call returns only when every job has succeeded, failed, crashed, or
        been killed at its deadline.
        """
        if self.persistent:
            return self._run_persistent(jobs, on_event)
        queue = JobQueue(jobs)
        running: List[_Slot] = []
        results: Dict[str, JobResult] = {}
        try:
            while queue or running:
                while queue and len(running) < self.worker_count:
                    running.append(self._launch(queue.pop(), on_event))
                self._reap(running, results, on_event)
        finally:
            # Belt and braces: never leave orphaned workers behind if the
            # driver itself is interrupted.
            for slot in running:
                if slot.process.is_alive():
                    slot.process.terminate()
                slot.process.join()
        return results

    # -- persistent mode --------------------------------------------------------

    def _spawn_persistent(self) -> _PersistentWorker:
        self.workers_spawned += 1
        return _spawn_worker(self._context)

    #: Consecutive idle-death assignment failures tolerated per job before
    #: it is reported FAILED instead of retried on a fresh worker.
    _MAX_ASSIGN_ATTEMPTS = 3

    def _run_persistent(
        self, jobs: Sequence[SynthesisJob], on_event: Optional[EventCallback]
    ) -> Dict[str, JobResult]:
        queue = JobQueue(jobs)
        results: Dict[str, JobResult] = {}
        assign_failures: Dict[str, int] = {}
        crew: List[_PersistentWorker] = [
            self._spawn_persistent() for _ in range(min(self.worker_count, len(queue)))
        ]
        try:
            while queue or any(worker.busy for worker in crew):
                for worker in list(crew):  # _retire mutates the crew
                    if worker.busy or not queue:
                        continue
                    job = queue.pop()
                    try:
                        worker.assign(job, on_event)
                    except (BrokenPipeError, OSError):
                        # The worker died while *idle*: the job never
                        # started, so retry it on a replacement (bounded —
                        # if fresh workers keep dying on arrival, fail the
                        # job rather than spin) and keep the batch alive.
                        worker.job = None
                        failures = assign_failures.get(job.job_id, 0) + 1
                        assign_failures[job.job_id] = failures
                        if failures >= self._MAX_ASSIGN_ATTEMPTS:
                            result = JobResult(
                                job_id=job.job_id,
                                name=job.name,
                                status=JobStatus.FAILED,
                                error=(
                                    "persistent worker died before accepting the "
                                    f"job ({failures} attempts)"
                                ),
                            )
                            results[job.job_id] = result
                            _emit(
                                on_event,
                                JobEvent(
                                    "failed", job.job_id, job.name, 0.0,
                                    result.error_summary(),
                                ),
                            )
                        else:
                            queue.push(job)
                        self._retire(worker, crew, queue)
                self._reap_persistent(crew, queue, results, on_event)
        finally:
            for worker in crew:
                worker.shutdown()
        return results

    def _reap_persistent(
        self,
        crew: List[_PersistentWorker],
        queue: JobQueue,
        results: Dict[str, JobResult],
        on_event: Optional[EventCallback],
    ) -> None:
        """Wait for progress on busy workers; collect results, crashes, expiries."""
        busy = [worker for worker in crew if worker.busy]
        if not busy:
            return
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        timeout = max(0.0, min(deadlines) - time.perf_counter()) if deadlines else None
        ready = set(connection_wait([worker.conn for worker in busy], timeout))
        now = time.perf_counter()
        for worker in busy:
            if worker.conn in ready:
                self._collect_persistent(worker, crew, queue, now, results, on_event)
            elif worker.deadline is not None and now >= worker.deadline:
                job = worker.job
                self._retire(worker, crew, queue)
                elapsed = now - worker.started
                result = JobResult(
                    job_id=job.job_id,
                    name=job.name,
                    status=JobStatus.TIMEOUT,
                    error=f"killed after exceeding the {job.timeout:g}s job timeout",
                    seconds=elapsed,
                )
                results[job.job_id] = result
                _emit(
                    on_event,
                    JobEvent("timeout", job.job_id, job.name, elapsed, result.error_summary()),
                )

    def _collect_persistent(
        self,
        worker: _PersistentWorker,
        crew: List[_PersistentWorker],
        queue: JobQueue,
        now: float,
        results: Dict[str, JobResult],
        on_event: Optional[EventCallback],
    ) -> None:
        """A busy worker's pipe is readable: an outcome, or EOF (it died)."""
        job = worker.job
        elapsed = now - worker.started
        try:
            outcome = worker.conn.recv()
        except (EOFError, OSError):
            outcome = None
        if outcome is None:
            # The worker died mid-job: fail the job, replace the worker.
            self._retire(worker, crew, queue)
            result = JobResult(
                job_id=job.job_id,
                name=job.name,
                status=JobStatus.FAILED,
                error=(
                    f"persistent worker died without reporting "
                    f"(exit code {worker.process.exitcode})"
                ),
                seconds=elapsed,
            )
        else:
            worker.job = None
            worker.deadline = None
            result = _result_from_outcome(job, outcome, outcome.get("seconds", elapsed))
        results[job.job_id] = result
        kind = "done" if result.ok else "failed"
        _emit(on_event, JobEvent(kind, job.job_id, job.name, result.seconds, result.error_summary()))

    def _retire(
        self, worker: _PersistentWorker, crew: List[_PersistentWorker], queue: JobQueue
    ) -> None:
        """Kill a dead/expired worker; respawn a replacement if work remains."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
        crew.remove(worker)
        if queue:
            crew.append(self._spawn_persistent())

    # -- internals -------------------------------------------------------------

    def _launch(self, job: SynthesisJob, on_event: Optional[EventCallback]) -> _Slot:
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_entry, args=(job.payload(), child_conn), daemon=True
        )
        process.start()
        self.workers_spawned += 1
        child_conn.close()  # the parent's copy; the child holds its own
        _emit(on_event, JobEvent("start", job.job_id, job.name))
        now = time.perf_counter()
        deadline = now + job.timeout if job.timeout is not None else None
        return _Slot(job=job, process=process, conn=parent_conn, started=now, deadline=deadline)

    def _wait_timeout(self, running: Sequence[_Slot]) -> Optional[float]:
        deadlines = [slot.deadline for slot in running if slot.deadline is not None]
        if not deadlines:
            return None  # block until some worker reports (or dies: EOF readies its pipe)
        return max(0.0, min(deadlines) - time.perf_counter())

    def _reap(
        self,
        running: List[_Slot],
        results: Dict[str, JobResult],
        on_event: Optional[EventCallback],
    ) -> None:
        """Wait for progress, then collect finished / crashed / expired slots."""
        if not running:
            return
        ready = set(connection_wait([slot.conn for slot in running], self._wait_timeout(running)))
        now = time.perf_counter()
        for slot in list(running):
            if slot.conn in ready:
                results[slot.job.job_id] = self._collect(slot, now, on_event)
                running.remove(slot)
            elif slot.deadline is not None and now >= slot.deadline:
                results[slot.job.job_id] = self._kill_expired(slot, now, on_event)
                running.remove(slot)

    def _collect(
        self, slot: _Slot, now: float, on_event: Optional[EventCallback]
    ) -> JobResult:
        """A worker's pipe is readable: either an outcome or an EOF (crash).

        A dying worker can surface as ``EOFError`` *or* as ``OSError``
        (e.g. ECONNRESET on the pipe) depending on how the kernel tears the
        connection down — both mean the same thing: no outcome is coming.
        """
        job = slot.job
        elapsed = now - slot.started
        try:
            outcome = slot.conn.recv()
        except (EOFError, OSError):
            outcome = None
        slot.conn.close()
        slot.process.join()
        if outcome is None:
            result = JobResult(
                job_id=job.job_id,
                name=job.name,
                status=JobStatus.FAILED,
                error=(
                    f"worker process died without reporting "
                    f"(exit code {slot.process.exitcode})"
                ),
                seconds=elapsed,
            )
        else:
            # Prefer the worker's own timing (excludes fork/dispatch overhead).
            result = _result_from_outcome(job, outcome, outcome.get("seconds", elapsed))
        kind = "done" if result.ok else "failed"
        _emit(on_event, JobEvent(kind, job.job_id, job.name, result.seconds, result.error_summary()))
        return result

    def _kill_expired(
        self, slot: _Slot, now: float, on_event: Optional[EventCallback]
    ) -> JobResult:
        """Hard deadline: terminate the worker and report a timeout."""
        job = slot.job
        slot.process.terminate()
        slot.process.join()
        slot.conn.close()
        elapsed = now - slot.started
        result = JobResult(
            job_id=job.job_id,
            name=job.name,
            status=JobStatus.TIMEOUT,
            error=f"killed after exceeding the {job.timeout:g}s job timeout",
            seconds=elapsed,
        )
        _emit(on_event, JobEvent("timeout", job.job_id, job.name, elapsed, result.error_summary()))
        return result


#: Per-job completion callback: receives the job and its final JobResult.
ResultCallback = Callable[[SynthesisJob, JobResult], None]


@dataclass
class _Submission:
    """One submitted job and where its progress/outcome should be reported."""

    job: SynthesisJob
    on_result: ResultCallback
    on_event: Optional[EventCallback]


class ResidentPool:
    """A long-lived worker fleet serving jobs submitted one at a time.

    The daemon-facing sibling of ``WorkerPool(persistent=True)``: the same
    worker processes and pipe protocol, but instead of draining one batch
    synchronously the pool runs a resident scheduler thread that accepts
    submissions from any thread at any time and reports each completion
    through the submission's own callback.  The isolation contract is the
    batch pool's: a worker that crashes, raises, or blows its deadline
    costs only the job it was running — the job is reported
    FAILED/TIMEOUT, a replacement worker is spawned, and the fleet keeps
    serving everything else.

    Callbacks run on the scheduler thread with no pool lock held, so they
    may call back into the pool (e.g. submit follow-up work), but they must
    not block for long — every worker's results flow through this one
    thread.

    ``shutdown(drain=True)`` stops admissions, finishes every queued and
    in-flight job (callbacks included), then stops the workers;
    ``drain=False`` kills the fleet immediately and fails outstanding jobs.
    """

    def __init__(self, worker_count: int, start_method: Optional[str] = None):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        self.worker_count = worker_count
        self._context, self.start_method = _pick_context(start_method)
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
        fails outstanding jobs immediately.  Idempotent.
        """
        with self._lock:
            thread = self._thread
            self._stopping = True
            self._drain = self._drain and drain
        if thread is None:
            return
        self._wake()
        thread.join(timeout)

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

    @property
    def running_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._crew if w.busy)

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
                busy = [w for w in self._crew if w.busy]
                finished = self._stopping and (
                    not self._drain or (not busy and not self._queue)
                )
            for action in actions:
                action()
            if finished:
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
            for action in actions:
                action()
        self._teardown()

    def _assign_ready(self, actions: List[Callable[[], None]]) -> None:
        """Hand queued jobs to idle workers (lock held)."""
        for worker in list(self._crew):  # _replace mutates the crew
            if not self._queue:
                break
            if worker.busy:
                continue
            job = self._queue.pop()
            submission = self._submissions[job.job_id]
            try:
                worker.assign(job, None)
            except (BrokenPipeError, OSError):
                # The worker died while *idle*: the job never started, so
                # retry it on a replacement (bounded — if fresh workers keep
                # dying on arrival, fail the job rather than spin).
                worker.job = None
                self.crashes += 1
                self._replace(worker)
                failures = self._assign_failures.get(job.job_id, 0) + 1
                self._assign_failures[job.job_id] = failures
                if failures >= WorkerPool._MAX_ASSIGN_ATTEMPTS:
                    self._finish(
                        job,
                        JobResult(
                            job_id=job.job_id,
                            name=job.name,
                            status=JobStatus.FAILED,
                            error=(
                                "persistent worker died before accepting the "
                                f"job ({failures} attempts)"
                            ),
                        ),
                        actions,
                    )
                else:
                    self._queue.push(job)
                continue
            if submission.on_event is not None:
                event = JobEvent("start", job.job_id, job.name)
                actions.append(lambda cb=submission.on_event, e=event: cb(e))

    def _collect_resident(
        self, worker: _PersistentWorker, now: float, actions: List[Callable[[], None]]
    ) -> None:
        """A busy worker's pipe is readable: an outcome, or it died (lock held)."""
        job = worker.job
        elapsed = now - worker.started
        try:
            outcome = worker.conn.recv()
        except (EOFError, OSError):
            outcome = None
        if outcome is None:
            self.crashes += 1
            self._replace(worker)
            result = JobResult(
                job_id=job.job_id,
                name=job.name,
                status=JobStatus.FAILED,
                error=(
                    f"persistent worker died without reporting "
                    f"(exit code {worker.process.exitcode})"
                ),
                seconds=elapsed,
            )
        else:
            worker.job = None
            worker.deadline = None
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
            JobResult(
                job_id=job.job_id,
                name=job.name,
                status=JobStatus.TIMEOUT,
                error=f"killed after exceeding the {job.timeout:g}s job timeout",
                seconds=now - worker.started,
            ),
            actions,
        )

    def _replace(self, worker: _PersistentWorker) -> None:
        """Kill a dead/expired worker; keep the fleet at strength (lock held)."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
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
            for worker in self._crew:
                if worker.busy:
                    job, worker.job = worker.job, None
                    self._finish(
                        job,
                        JobResult(
                            job_id=job.job_id,
                            name=job.name,
                            status=JobStatus.FAILED,
                            error="resident pool shut down while the job was running",
                        ),
                        actions,
                    )
            while self._queue:
                job = self._queue.pop()
                self._finish(
                    job,
                    JobResult(
                        job_id=job.job_id,
                        name=job.name,
                        status=JobStatus.FAILED,
                        error="resident pool shut down before the job ran",
                    ),
                    actions,
                )
            crew, self._crew = self._crew, []
        for worker in crew:
            worker.shutdown()
        for action in actions:
            action()
        self._wake_recv.close()
        self._wake_send.close()
