"""Prometheus text-exposition rendering: format, labels, and buckets.

The renderer (:func:`repro.obs.prometheus.render_prometheus`) is the
scrape payload behind the daemon's ``metrics`` frame and ``szalinski
stats --prometheus``; these tests pin the exposition-format contract a
scraper relies on: correct ``# HELP``/``# TYPE`` headers, cumulative and
monotone ``_bucket`` samples ending at ``le="+Inf"`` == ``_count``,
exact ``_sum``, escaped label values, and stable (sorted) series order.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.obs.histogram import _BOUNDS, LatencyHistogram, MetricsAggregator
from repro.obs.prometheus import render_prometheus


def _aggregator() -> MetricsAggregator:
    metrics = MetricsAggregator()
    trace = [
        {"name": "saturate", "duration": 0.25},
        {"name": "saturate", "duration": 0.50},
        {"name": "determinize", "duration": 0.001},
    ]
    metrics.ingest(model="gear", seconds=1.5, trace=trace)
    metrics.ingest(model="gear", seconds=2.5, cache_tier="exact")
    metrics.ingest(model="hex-wall", seconds=0.25)
    return metrics


def _sample_lines(text: str, name: str):
    """All sample lines (not comments) of one metric family."""
    pattern = re.compile(rf"^{re.escape(name)}(_bucket|_sum|_count)?(\{{[^}}]*\}})? ")
    return [line for line in text.splitlines() if pattern.match(line)]


class TestHistogramSeries:
    def test_help_and_type_headers_present(self):
        text = render_prometheus(_aggregator())
        for family in (
            "repro_job_latency_seconds",
            "repro_phase_latency_seconds",
            "repro_model_latency_seconds",
            "repro_cache_tier_latency_seconds",
        ):
            assert f"# TYPE {family} histogram" in text
            assert f"# HELP {family} " in text
        assert "# TYPE repro_spans_ingested_total counter" in text
        assert text.endswith("\n")

    def test_bucket_lines_are_cumulative_and_capped_by_inf(self):
        metrics = _aggregator()
        text = render_prometheus(metrics)
        lines = _sample_lines(text, "repro_job_latency_seconds")
        buckets = [l for l in lines if l.startswith("repro_job_latency_seconds_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "bucket samples must be cumulative"
        assert buckets[-1].startswith('repro_job_latency_seconds_bucket{le="+Inf"}')
        assert counts[-1] == metrics.jobs.count == 3

        # The finite bounds are exactly the occupied grid buckets, in the
        # histogram's own cumulative order.
        expected = metrics.jobs.cumulative_buckets()
        finite = buckets[:-1]
        assert len(finite) == len(expected)
        for line, (bound, cumulative) in zip(finite, expected):
            assert f'le="{repr(bound)}"' in line
            assert line.endswith(f" {cumulative}")

    def test_sum_and_count_are_exact(self):
        metrics = _aggregator()
        text = render_prometheus(metrics)
        sum_line = next(
            l for l in text.splitlines() if l.startswith("repro_job_latency_seconds_sum ")
        )
        count_line = next(
            l for l in text.splitlines() if l.startswith("repro_job_latency_seconds_count ")
        )
        assert math.isclose(float(sum_line.split()[1]), 1.5 + 2.5 + 0.25)
        assert count_line.split()[1] == "3"

    def test_phase_and_tier_labels(self):
        text = render_prometheus(_aggregator())
        assert 'repro_phase_latency_seconds_count{phase="saturate"} 2' in text
        assert 'repro_phase_latency_seconds_count{phase="determinize"} 1' in text
        # Untiered jobs land in the "fresh" series, cache hits in their tier.
        assert 'repro_cache_tier_latency_seconds_count{tier="fresh"} 2' in text
        assert 'repro_cache_tier_latency_seconds_count{tier="exact"} 1' in text
        assert "repro_spans_ingested_total 3" in text

    def test_model_series_sorted_for_stable_scrapes(self):
        text = render_prometheus(_aggregator())
        positions = [
            text.index(f'repro_model_latency_seconds_count{{model="{name}"}}')
            for name in ("gear", "hex-wall")
        ]
        assert positions == sorted(positions)

    def test_label_values_escaped(self):
        metrics = MetricsAggregator()
        metrics.ingest(model='we"ird\\mo\ndel', seconds=0.1)
        text = render_prometheus(metrics)
        assert 'model="we\\"ird\\\\mo\\ndel"' in text
        # The escaped text must stay a single physical line.
        assert not any(
            line.startswith('del"') for line in text.splitlines()
        ), "newline in a label value broke the line framing"

    def test_bucket_grid_assignment(self):
        """Each recorded value is counted at (exactly) its grid bound."""
        hist = LatencyHistogram()
        for value in (0.0, 1e-7, 0.5, 0.5, 7.0):
            hist.record(value)
        buckets = dict(hist.cumulative_buckets())
        # Samples at or below 1 µs land in the underflow bucket.
        assert buckets[_BOUNDS[0]] == 2
        # Every bound in the exposition is a real grid bound.
        assert set(buckets) <= set(_BOUNDS)
        assert max(buckets.values()) == hist.count == 5
        # The bound covering 0.5s is tight: within one bucket ratio above.
        bound = min(b for b in buckets if b >= 0.5)
        assert bound / 0.5 <= 10 ** (1 / 8) + 1e-9

    def test_empty_aggregator_renders_without_series(self):
        text = render_prometheus(MetricsAggregator())
        assert 'repro_job_latency_seconds_bucket{le="+Inf"} 0' in text
        assert "repro_job_latency_seconds_count 0" in text
        assert "repro_phase_latency_seconds_bucket" not in text
        assert "repro_spans_ingested_total 0" in text


class TestDaemonMetricsFrame:
    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.service import SynthesisDaemon

        daemon = SynthesisDaemon(tmp_path / "d.sock", worker_count=1)
        daemon.start()
        yield daemon
        daemon.shutdown(drain=False)

    def test_metrics_frame_roundtrip(self, daemon):
        from repro.csg.build import translate, union_all, unit
        from repro.csg.pretty import format_term
        from repro.service.protocol import DaemonClient

        term = format_term(
            union_all([translate(2.0 * (i + 1), 0.0, 0.0, unit()) for i in range(3)])
        )
        with DaemonClient(daemon.socket_path) as client:
            client.submit_and_wait([{"name": "chain", "term": term}])
            frame = client.metrics()
        assert frame["type"] == "metrics"
        assert frame["content_type"].startswith("text/plain")
        text = frame["text"]
        assert "repro_job_latency_seconds_count 1" in text
        assert 'repro_model_latency_seconds_count{model="chain"} 1' in text
        # Job tracing is on by default, so phase families are populated.
        assert 'repro_phase_latency_seconds_count{phase="saturate"}' in text

    def test_cli_stats_prometheus(self, daemon, capsys):
        from repro.cli import main

        assert main(["stats", "--socket", str(daemon.socket_path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP repro_job_latency_seconds ")
        assert out.endswith("\n")
        assert "repro_spans_ingested_total" in out
