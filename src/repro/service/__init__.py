"""Batch synthesis service.

Turns the one-shot :func:`repro.core.pipeline.synthesize` entry point into a
throughput-oriented service: a priority :class:`~repro.service.queue.JobQueue`
of :class:`~repro.service.job.SynthesisJob`\\ s, a process-parallel
:class:`~repro.service.worker.ResidentPool` with per-job failure isolation and
hard timeouts, and a content-addressed two-tier
:class:`~repro.service.cache.ResultCache`, orchestrated by
:class:`~repro.service.service.SynthesisService`.

See the top-level ``README.md`` for the architecture and the cache layout.
"""

from repro.service.cache import ResultCache, cache_key
from repro.service.daemon import SynthesisDaemon
from repro.service.job import JobEvent, JobResult, JobStatus, SynthesisJob
from repro.service.protocol import (
    DaemonClient,
    DaemonError,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.queue import JobQueue
from repro.service.service import BatchReport, SynthesisService
from repro.service.worker import (
    ResidentPool,
    execute_payload,
    run_jobs_inline,
)

__all__ = [
    "BatchReport",
    "DaemonClient",
    "DaemonError",
    "JobEvent",
    "JobQueue",
    "JobResult",
    "JobStatus",
    "ProtocolError",
    "ResidentPool",
    "ResultCache",
    "SynthesisDaemon",
    "SynthesisJob",
    "SynthesisService",
    "cache_key",
    "execute_payload",
    "recv_frame",
    "run_jobs_inline",
    "send_frame",
]
