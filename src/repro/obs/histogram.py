"""Streaming latency histograms and the service-side metrics aggregator.

:class:`LatencyHistogram` buckets latencies (seconds) into a fixed
log-scale grid — :data:`BUCKETS_PER_DECADE` buckets per power of ten
from 1 µs to 10 000 s, behind one underflow bucket for everything at or
below 1 µs — so recording is O(1), memory is constant, and two
histograms merge by adding counts.  Percentiles are derived by exact
rank selection over the bucket counts: ``percentile(q)`` finds the
bucket containing the ``ceil(q·count)``-th smallest sample and reports
that bucket's upper bound (clamped to the observed max), so the reported
value is an upper bound on the true percentile within one bucket ratio
(``10^(1/8) ≈ 1.334``).

:class:`MetricsAggregator` is the piece the synthesis service owns (for
a batch and for the daemon alike): it ingests per-job traces and outcomes
into histogram families keyed per phase (span name), per model (job
name), and per cache tier, and snapshots them for ``stats`` frames and
batch reports.  The aggregator does no locking itself — the service
serializes calls under its lock.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["LatencyHistogram", "MetricsAggregator", "format_latency_table", "BUCKETS_PER_DECADE"]

BUCKETS_PER_DECADE = 8
_MIN_LATENCY = 1e-6  # floor of the grid: 1 microsecond
_DECADES = 10  # 1e-6 .. 1e4 seconds
_BUCKET_COUNT = BUCKETS_PER_DECADE * _DECADES + 1  # the grid plus the underflow bucket

# Upper bound of bucket i; samples <= _BOUNDS[i] and > _BOUNDS[i-1] land in i.
# Bucket 0 is the underflow bucket: every sample at or below 1 µs.
_BOUNDS = tuple(_MIN_LATENCY * 10.0 ** (i / BUCKETS_PER_DECADE) for i in range(_BUCKET_COUNT))
_LOG_MIN = math.log10(_MIN_LATENCY)


def _bucket_index(seconds: float) -> int:
    if seconds <= _MIN_LATENCY:
        return 0
    idx = 1 + int((math.log10(seconds) - _LOG_MIN) * BUCKETS_PER_DECADE)
    if idx >= _BUCKET_COUNT:
        return _BUCKET_COUNT - 1
    # Guard against float rounding right at a bucket boundary.
    if seconds > _BOUNDS[idx]:
        idx += 1
    return min(idx, _BUCKET_COUNT - 1)


class LatencyHistogram:
    """Fixed log-bucket latency histogram with exact-rank percentile lookup."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        idx = _bucket_index(seconds)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        for idx, n in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def percentile(self, q: float) -> float:
        """Upper bound on the q-quantile (q in (0, 1]), 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for idx in sorted(self.counts):
            cumulative += self.counts[idx]
            if cumulative >= rank:
                if idx == _BUCKET_COUNT - 1:
                    # The overflow bucket holds everything past the grid;
                    # its nominal bound would under-report.
                    return self.max
                return min(_BOUNDS[idx], self.max)
        return self.max  # pragma: no cover - counts always sum to self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[tuple]:
        """``(upper_bound_seconds, cumulative_count)`` per occupied bucket.

        Only buckets that gained a sample are listed (ascending, cumulative
        over the full grid) — the Prometheus exposition renderer emits these
        plus the ``+Inf`` bucket, which keeps series at most ``count`` long
        instead of the grid's full 80 bounds.
        """
        out: List[tuple] = []
        cumulative = 0
        for idx in sorted(self.counts):
            cumulative += self.counts[idx]
            out.append((_BOUNDS[idx], cumulative))
        return out

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


# Cap on distinct per-model histograms in a long-lived daemon; overflow
# models aggregate into one bucket rather than growing without bound.
_MAX_MODEL_SERIES = 64
_OVERFLOW_KEY = "__other__"


class MetricsAggregator:
    """Latency histogram families per phase, per model, and per cache tier."""

    __slots__ = ("jobs", "phases", "models", "tiers", "spans_ingested")

    def __init__(self) -> None:
        self.jobs = LatencyHistogram()
        self.phases: Dict[str, LatencyHistogram] = {}
        self.models: Dict[str, LatencyHistogram] = {}
        self.tiers: Dict[str, LatencyHistogram] = {}
        self.spans_ingested = 0

    def _series(self, family: Dict[str, LatencyHistogram], key: str, cap: Optional[int] = None) -> LatencyHistogram:
        hist = family.get(key)
        if hist is None:
            if cap is not None and len(family) >= cap:
                key = _OVERFLOW_KEY
                hist = family.get(key)
                if hist is not None:
                    return hist
            hist = LatencyHistogram()
            family[key] = hist
        return hist

    def ingest(
        self,
        *,
        model: str,
        seconds: float,
        cache_tier: Optional[str] = None,
        trace: Optional[Iterable[Dict[str, Any]]] = None,
    ) -> None:
        """Fold one finished job into the histograms.

        ``seconds`` is the job's end-to-end latency, ``cache_tier`` how it
        was served (``None`` == fresh execution), and ``trace`` the
        exported span list (phase spans feed the per-phase family).
        """
        self.jobs.record(seconds)
        self._series(self.models, model, _MAX_MODEL_SERIES).record(seconds)
        self._series(self.tiers, cache_tier or "fresh").record(seconds)
        if trace:
            for span in trace:
                name = span.get("name")
                if not name:
                    continue
                self._series(self.phases, name).record(span.get("duration", 0.0))
                self.spans_ingested += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs.to_dict(),
            "spans_ingested": self.spans_ingested,
            "phases": {name: h.to_dict() for name, h in sorted(self.phases.items())},
            "models": {name: h.to_dict() for name, h in sorted(self.models.items())},
            "cache_tiers": {name: h.to_dict() for name, h in sorted(self.tiers.items())},
        }


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:7.2f}ms"
    return f"{value * 1e6:7.1f}us"


def _table_section(title: str, family: Dict[str, Any]) -> List[str]:
    lines = [f"{title}:"]
    header = f"  {'series':<22} {'count':>6} {'p50':>9} {'p95':>9} {'p99':>9} {'mean':>9} {'total':>9}"
    lines.append(header)
    for name, stats in family.items():
        lines.append(
            f"  {name:<22} {stats['count']:>6} "
            f"{_fmt_seconds(stats['p50'])} {_fmt_seconds(stats['p95'])} "
            f"{_fmt_seconds(stats['p99'])} {_fmt_seconds(stats['mean'])} "
            f"{_fmt_seconds(stats['total_seconds'])}"
        )
    return lines


def format_latency_table(snapshot: Optional[Dict[str, Any]]) -> str:
    """Render a MetricsAggregator snapshot for `szalinski stats --percentiles`."""
    if not snapshot or not snapshot.get("jobs", {}).get("count"):
        return "no latency data recorded yet"
    lines = _table_section("end-to-end", {"jobs": snapshot["jobs"]})
    for title, key in (("phases", "phases"), ("cache tiers", "cache_tiers"), ("models", "models")):
        family = snapshot.get(key)
        if family:
            lines.append("")
            lines.extend(_table_section(title, family))
    return "\n".join(lines)
