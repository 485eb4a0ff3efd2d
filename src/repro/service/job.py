"""Jobs, results, and events of the batch synthesis service.

A :class:`SynthesisJob` is one unit of work: a flat CSG term plus the
:class:`~repro.core.config.SynthesisConfig` to synthesize it under, with a
scheduling priority and an optional hard timeout.  Jobs are immutable and
their worker-facing :meth:`~SynthesisJob.payload` is plain JSON-able data
(the term travels as canonical s-expression text), so a job can cross a
process boundary regardless of how its input was produced — file, parsed
term, or benchsuite builder.

A :class:`JobResult` is what comes back: a status, the deserialized
:class:`~repro.core.pipeline.SynthesisResult` on success, or a captured
traceback on failure — one pathological model reports as a failed *job*,
never as a sunk *batch*.  :class:`JobEvent` is the structured progress
stream the service emits while a batch runs.
"""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisResult
from repro.lang.canon import canonical_term_text
from repro.lang.term import Term


class JobStatus(Enum):
    """Lifecycle states a job can end (or sit) in."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMEOUT = "timeout"


#: Process-local source of default job ids (unique within one batch driver).
_JOB_IDS = itertools.count(1)


@dataclass(frozen=True)
class SynthesisJob:
    """One synthesis request: input term + config + scheduling metadata."""

    name: str
    term: Term
    config: SynthesisConfig = field(default_factory=SynthesisConfig)
    #: Higher-priority jobs are dispatched first (ties run in submission order).
    priority: int = 0
    #: Hard per-job wall-clock limit in seconds.  Enforced by killing the
    #: worker process when running under a
    #: :class:`~repro.service.worker.ResidentPool`; the inline executor can
    #: only honor it cooperatively, by clamping the config's ``max_seconds``
    #: fuel.
    timeout: Optional[float] = None
    #: When True the worker records a per-phase span trace of the job
    #: (``repro.obs``) and ships it back on :attr:`JobResult.trace`.
    #: Deliberately *not* part of the cache identity — a traced and an
    #: untraced run of the same job produce the same result.
    trace: bool = False
    job_id: str = ""

    def __post_init__(self):
        if not self.job_id:
            object.__setattr__(self, "job_id", f"job{next(_JOB_IDS)}:{self.name}")

    # -- construction ----------------------------------------------------------

    @staticmethod
    def from_file(
        path, config: Optional[SynthesisConfig] = None, **kwargs
    ) -> "SynthesisJob":
        """Build a job from a flat-CSG s-expression file.

        Parsing mirrors ``szalinski synth``: non-strict, so inputs containing
        ``External`` placeholders are accepted.
        """
        from repro.csg.parser import parse_csg

        path = Path(path)
        term = parse_csg(path.read_text(), strict=False)
        return SynthesisJob(
            name=kwargs.pop("name", path.stem),
            term=term,
            config=config or SynthesisConfig(),
            **kwargs,
        )

    # -- worker protocol -------------------------------------------------------

    def payload(self) -> dict:
        """The JSON-able description shipped to a worker process."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "term": canonical_term_text(self.term),
            "config": self.config.to_dict(),
            "timeout": self.timeout,
            "trace": self.trace,
        }


@dataclass
class JobResult:
    """The outcome of one job."""

    job_id: str
    name: str
    status: JobStatus
    result: Optional[SynthesisResult] = None
    #: Captured traceback (or a one-line reason for timeouts/crashes).
    error: Optional[str] = None
    #: Wall-clock seconds the job took end to end (0 for cache hits).
    seconds: float = 0.0
    #: True when the result was served from the content-addressed cache.
    cached: bool = False
    #: Which cache level served it: ``"exact"`` or ``"semantic"`` (None when
    #: not cached).
    cache_tier: Optional[str] = None
    #: The ``result.to_dict()`` form as it crossed the worker boundary, kept
    #: so the cache can store it without re-serializing (internal plumbing;
    #: may be None, in which case callers serialize ``result`` themselves).
    result_payload: Optional[dict] = None
    #: Exported span list (``repro.obs.trace.Tracer.export()``) when the job
    #: ran with tracing enabled.  Kept out of :meth:`to_dict` — wire frames
    #: and cached payloads stay compact; the service/daemon aggregate the
    #: spans into latency histograms and optionally stream them to a JSONL
    #: trace file instead.
    trace: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.SUCCEEDED

    def error_summary(self) -> str:
        """The last non-empty line of the error (the exception message)."""
        if not self.error:
            return ""
        lines = [line for line in self.error.strip().splitlines() if line.strip()]
        return lines[-1] if lines else ""

    def to_dict(self) -> dict:
        """Compact JSON-able snapshot (result reduced to headline numbers)."""
        out = {
            "job_id": self.job_id,
            "name": self.name,
            "status": self.status.value,
            "seconds": self.seconds,
            "cached": self.cached,
        }
        if self.cached and self.cache_tier is not None:
            out["cache_tier"] = self.cache_tier
        if self.error is not None:
            out["error"] = self.error_summary()
        if self.result is not None:
            out["result"] = {
                "candidates": len(self.result.candidates),
                "best_cost": self.result.best.cost if self.result.candidates else None,
                "exposes_structure": self.result.exposes_structure(),
                "size_reduction": self.result.size_reduction(),
            }
        return out


@dataclass(frozen=True)
class JobEvent:
    """One structured progress event streamed back to the batch caller."""

    #: ``"start"``, ``"cache-hit"``, ``"done"``, ``"failed"``, or ``"timeout"``.
    kind: str
    job_id: str
    name: str
    seconds: float = 0.0
    message: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.seconds:.2f}s)" if self.kind in ("done", "failed", "timeout") else ""
        message = f": {self.message}" if self.message else ""
        return f"[{self.kind}] {self.name}{suffix}{message}"
