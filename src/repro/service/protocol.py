"""Wire protocol of the resident synthesis daemon.

Frames
------

Everything on the socket is a **frame**: a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON encoding one object.
Frames are self-delimiting, so requests, responses, and asynchronously
streamed progress can share one connection.  A frame that cannot be
decoded — oversized length, truncated body, invalid JSON, or a non-object
payload — raises :class:`ProtocolError`; once a stream is torn like that
its framing is unreliable, so the daemon answers with one ``error`` frame
and closes *that* connection (other clients are unaffected).

Requests (client → daemon)
--------------------------

``{"type": "submit", "jobs": [SPEC, ...], "wait": bool, "stream": bool}``
    Submit a batch of jobs.  Each SPEC is ``{"name": str, "term": str}``
    plus optional ``"config"`` (a ``SynthesisConfig.to_dict()``),
    ``"priority"`` (int, higher first), ``"timeout"`` (seconds), and
    ``"id"``.  The term is flat-CSG s-expression text (a model file's
    contents verbatim, or canonical text — both parse).  ``wait`` asks for
    one ``result`` frame per job; ``stream`` additionally asks for
    ``event`` progress frames.

``{"type": "health"}`` / ``{"type": "stats"}``
    Liveness/observability snapshots; answered synchronously.  Both read
    the daemon's counters in one critical section, and the service's
    (workers, cache, in-flight keys, latency) in one nested inside it.
    Their ``jobs`` counters include ``semantic_keys``, the semantic keys
    the service looked up (one per exact cache miss; an exact hit and a
    duplicate of a running job derive none).  The ``stats`` response
    additionally carries ``clients``, ``in_flight_keys``, the full cache
    counter set (``decodes`` counts payloads decoded into results), and a
    ``latency`` section — streaming histogram
    summaries (count/mean/p50/p95/p99, exact-rank over fixed log-scale
    buckets) for end-to-end job latency plus per-phase, per-model, and
    per-cache-tier families (``szalinski stats --percentiles`` renders
    it; phase families fill in while the daemon runs with job tracing
    on, the default).

``{"type": "metrics"}``
    The same histogram families rendered as Prometheus text exposition
    (``repro_phase_latency_seconds`` etc.), answered with ``{"type":
    "metrics", "content_type": ..., "text": str}`` — the payload for a
    scrape endpoint or ``szalinski stats --prometheus``.  Rendered in
    one critical section of the service, which owns the metrics.

``{"type": "shutdown"}``
    Ask the daemon to drain in-flight jobs and exit (acked with ``ok``).

Responses (daemon → client)
---------------------------

``{"type": "accepted", "job_ids": [...]}``
    The submission was admitted; ids are in SPEC order.

``{"type": "rejected", "reason": str}``
    The submission was refused *as a whole* — duplicate job ids, a full
    pending queue (admission control), or a draining daemon.  Nothing was
    enqueued.

``{"type": "result", "job": <JobResult.to_dict()>}``
    One job finished (sent only when the submission asked to ``wait``).
    ``job.cached``/``job.cache_tier`` distinguish fresh runs from
    ``exact``/``semantic`` cache hits and in-flight ``batch`` coalescing.

``{"type": "event", "kind": ..., "job_id": ..., "name": ..., "seconds":
..., "message": ...}``
    One :class:`~repro.service.job.JobEvent` (``stream`` submissions only).

``{"type": "health", ...}`` / ``{"type": "stats", ...}`` / ``{"type":
"ok"}`` / ``{"type": "error", "error": str}``
    Direct answers.  ``error`` is a *well-formed but unserviceable* frame
    (unknown type, missing fields); the connection stays open.

:class:`DaemonClient` wraps one connection with the request/response and
result-collection bookkeeping (asynchronous ``result`` frames can overtake
a response on the wire; the client buffers them), so CLI and tests never
touch raw frames.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Callable, Dict, List, Optional

#: Hard ceiling on one frame's JSON body.  Large enough for any synthesis
#: result the suite produces, small enough that a garbage length prefix
#: cannot make the daemon allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """The byte stream does not contain a well-formed frame."""


class DaemonError(Exception):
    """The daemon answered, but with a rejection or an error frame."""


def send_frame(sock: socket.socket, frame: dict) -> None:
    """Serialize one frame onto the socket."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the protocol maximum")
    sock.sendall(_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; None on a clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for anything that is not a well-formed
    frame: EOF mid-frame, an oversized length prefix, undecodable JSON, or
    a body that is not a JSON object.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length = _HEADER.unpack(header)[0]
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the protocol maximum")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("frame body must be a JSON object")
    return frame


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Exactly ``count`` bytes, or None on EOF before the first byte."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None if len(chunks) == 0 else _torn()
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _torn() -> bytes:
    raise ProtocolError("connection closed mid-frame")


class DaemonClient:
    """One connection to a :class:`~repro.service.daemon.SynthesisDaemon`.

    Usable from the CLI and tests as a context manager::

        with DaemonClient("/tmp/szalinski.sock") as client:
            accepted = client.submit([{"name": "gear", "term": text}])
            results = client.wait_for(accepted["job_ids"])

    The daemon pushes ``result``/``event`` frames asynchronously, so a
    frame belonging to an earlier submission can arrive while the client
    waits for a direct response; :meth:`_response` files those away and
    :meth:`wait_for` consumes the buffer first.
    """

    def __init__(self, socket_path, timeout: Optional[float] = 60.0):
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(self.socket_path)
        except BaseException:
            self._sock.close()
            raise
        #: result frames received while waiting for something else.
        self._pending_results: Dict[str, dict] = {}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests --------------------------------------------------------------

    def request(self, frame: dict) -> dict:
        """Send one request frame and return its direct response frame."""
        send_frame(self._sock, frame)
        return self._response()

    def submit(
        self,
        jobs: List[dict],
        wait: bool = True,
        stream: bool = False,
    ) -> dict:
        """Submit job specs; returns the ``accepted`` frame.

        Raises :class:`DaemonError` if the daemon rejects the submission
        (full queue, duplicate ids, draining).
        """
        response = self.request(
            {"type": "submit", "jobs": jobs, "wait": wait, "stream": stream}
        )
        if response.get("type") == "rejected":
            raise DaemonError(response.get("reason", "submission rejected"))
        if response.get("type") != "accepted":
            raise DaemonError(f"unexpected response: {response}")
        return response

    def wait_for(
        self,
        job_ids: List[str],
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> Dict[str, dict]:
        """Collect the ``result`` frame of every listed job.

        Returns ``{job_id: JobResult.to_dict()}``.  ``on_event`` receives
        any ``event`` frames that arrive in between (stream submissions).
        """
        outstanding = set(job_ids)
        results: Dict[str, dict] = {}
        for job_id in list(outstanding):
            if job_id in self._pending_results:
                results[job_id] = self._pending_results.pop(job_id)
                outstanding.discard(job_id)
        while outstanding:
            frame = recv_frame(self._sock)
            if frame is None:
                raise DaemonError(
                    f"daemon closed the connection with {len(outstanding)} "
                    "job(s) still outstanding"
                )
            kind = frame.get("type")
            if kind == "result":
                job = frame.get("job", {})
                job_id = job.get("job_id")
                if job_id in outstanding:
                    results[job_id] = job
                    outstanding.discard(job_id)
                else:
                    self._pending_results[str(job_id)] = job
            elif kind == "event":
                if on_event is not None:
                    on_event(frame)
            elif kind == "error":
                raise DaemonError(frame.get("error", "daemon reported an error"))
            # Anything else (e.g. a health response to a pipelined request)
            # is not ours to consume here; drop it — callers that pipeline
            # requests should use separate connections.
        return results

    def submit_and_wait(
        self,
        jobs: List[dict],
        stream: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> List[dict]:
        """Submit and block until every job's result is in (spec order)."""
        accepted = self.submit(jobs, wait=True, stream=stream)
        results = self.wait_for(accepted["job_ids"], on_event=on_event)
        return [results[job_id] for job_id in accepted["job_ids"]]

    def health(self) -> dict:
        """The daemon's health snapshot."""
        return self.request({"type": "health"})

    def stats(self) -> dict:
        """The daemon's full statistics snapshot."""
        return self.request({"type": "stats"})

    def metrics(self) -> dict:
        """The daemon's metrics as Prometheus exposition text (``text`` key)."""
        return self.request({"type": "metrics"})

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit; returns the ``ok`` ack."""
        return self.request({"type": "shutdown"})

    # -- internals -------------------------------------------------------------

    def _response(self) -> dict:
        """The next frame that is a direct response (results are buffered)."""
        while True:
            frame = recv_frame(self._sock)
            if frame is None:
                raise DaemonError("daemon closed the connection")
            kind = frame.get("type")
            if kind == "result":
                job = frame.get("job", {})
                self._pending_results[str(job.get("job_id"))] = job
                continue
            if kind == "event":
                continue
            return frame
