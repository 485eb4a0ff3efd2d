"""Tests for the observability layer (``repro.obs``).

Covers the tracer's span-tree contract (parents, nesting, closure), the
zero-allocation disabled path, the log-bucket latency histograms and their
exact-rank percentile bounds, the JSONL/Chrome exporters, and the
end-to-end instrumentation: a traced ``synthesize`` produces a well-formed
span tree whose phase spans account for (nearly) all of the job's wall
time, under randomized pipeline configurations.
"""

import json
import math

import pytest

from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.csg.build import translate, union_all, unit
from repro.obs.export import (
    chrome_trace,
    read_trace_jsonl,
    span_lines,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.histogram import (
    BUCKETS_PER_DECADE,
    LatencyHistogram,
    MetricsAggregator,
    format_latency_table,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, validate_spans
from repro.service.job import SynthesisJob
from repro.service.worker import execute_payload

#: One bucket's upper/lower bound ratio — the histogram's worst-case
#: percentile overestimate factor.
BUCKET_RATIO = 10.0 ** (1.0 / BUCKETS_PER_DECADE)


def _chain(n: int, step: float = 2.0):
    """A small flat union chain (fast to synthesize)."""
    return union_all([translate(step * (i + 1), 0.0, 0.0, unit()) for i in range(n)])


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_record_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.open_spans == 0
        spans = tracer.export()
        assert [s["name"] for s in spans] == ["outer", "inner", "sibling"]
        assert validate_spans(spans) == []

    def test_attributes_are_typed(self):
        tracer = Tracer()
        with tracer.span("s", {"n": 3}) as span:
            span.set("flag", True)
            span.set("ratio", 0.5)
            span.set("label", "x")
            span.set("object", {"not": "scalar"})  # coerced to str
        record = tracer.export()[0]
        assert record["attrs"]["n"] == 3
        assert record["attrs"]["flag"] is True
        assert record["attrs"]["ratio"] == 0.5
        assert record["attrs"]["label"] == "x"
        assert isinstance(record["attrs"]["object"], str)

    def test_exception_closes_span_and_marks_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        spans = tracer.export()
        assert spans[0]["attrs"]["error"] == "ValueError"
        assert validate_spans(spans) == []
        assert tracer.open_spans == 0

    def test_timestamps_are_monotone_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = next(s for s in tracer.export() if s["name"] == "outer")
        inner = next(s for s in tracer.export() if s["name"] == "inner")
        assert outer["start"] <= inner["start"]
        assert inner["end"] <= outer["end"] + 1e-9
        assert outer["end"] >= outer["start"]

    def test_export_is_json_serializable(self):
        tracer = Tracer()
        with tracer.span("s", {"k": 1}):
            pass
        json.dumps(tracer.export())


class TestNullTracer:
    def test_span_is_a_shared_singleton(self):
        # The zero-allocation pin: every span() call on the disabled path
        # returns the SAME object — nothing is allocated per span.
        first = NULL_TRACER.span("a")
        for _ in range(1000):
            assert NULL_TRACER.span("b", {"k": 1}) is first

    def test_enter_returns_none_so_attr_writes_are_skipped(self):
        with NULL_TRACER.span("x") as span:
            assert span is None

    def test_records_nothing(self):
        with NULL_TRACER.span("x"):
            with NULL_TRACER.span("y"):
                pass
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.finished == []
        assert NULL_TRACER.open_spans == 0

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NullTracer().enabled is False


class TestValidateSpans:
    def test_flags_unclosed_span(self):
        assert validate_spans([{"span_id": 1, "name": "x", "start": 0.0, "end": None}])

    def test_flags_dangling_parent(self):
        spans = [{"span_id": 1, "name": "x", "parent_id": 99, "start": 0.0, "end": 1.0}]
        assert any("dangling" in p for p in validate_spans(spans))

    def test_flags_child_escaping_parent(self):
        spans = [
            {"span_id": 1, "name": "p", "parent_id": None, "start": 0.0, "end": 1.0},
            {"span_id": 2, "name": "c", "parent_id": 1, "start": 0.5, "end": 2.0},
        ]
        assert any("escapes" in p for p in validate_spans(spans))

    def test_flags_duplicate_ids(self):
        spans = [
            {"span_id": 1, "name": "a", "parent_id": None, "start": 0.0, "end": 1.0},
            {"span_id": 1, "name": "b", "parent_id": None, "start": 0.0, "end": 1.0},
        ]
        assert any("duplicate" in p for p in validate_spans(spans))


# ---------------------------------------------------------------------------
# Latency histograms
# ---------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_empty_histogram_reports_zeros(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.5) == 0.0
        stats = hist.to_dict()
        assert stats["count"] == 0
        assert stats["p99"] == 0.0
        assert stats["min"] == 0.0
        assert stats["mean"] == 0.0

    def test_single_sample(self):
        hist = LatencyHistogram()
        hist.record(0.25)
        stats = hist.to_dict()
        assert stats["count"] == 1
        assert stats["min"] == stats["max"] == 0.25
        # The reported percentile is the bucket bound clamped to the max.
        assert stats["p50"] == 0.25
        assert stats["p99"] == 0.25

    def test_percentile_is_bounded_overestimate(self):
        samples = [0.001 * (i + 1) for i in range(200)]
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99):
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            reported = hist.percentile(q)
            assert reported >= exact * 0.999
            assert reported <= exact * BUCKET_RATIO * 1.001

    def test_merge_equals_recording_everything(self):
        a, b, merged = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for i in range(50):
            a.record(0.01 * (i + 1))
            merged.record(0.01 * (i + 1))
        for i in range(50):
            b.record(1.0 + i)
            merged.record(1.0 + i)
        a.merge(b)
        assert a.to_dict() == merged.to_dict()

    def test_percentiles_are_monotone_in_q(self):
        hist = LatencyHistogram()
        for i in range(100):
            hist.record(0.0001 * (1.3 ** (i % 20)))
        assert hist.percentile(0.5) <= hist.percentile(0.95) <= hist.percentile(0.99)

    def test_extreme_values_clamp_into_the_grid(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(1e-9)
        hist.record(1e6)
        assert hist.count == 3
        assert hist.percentile(0.99) == 1e6  # clamped to observed max

    def test_zero_count_hypothesis_percentile_bound(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=50, deadline=None)
        # A sub-microsecond sample must not report the first grid bound (1.33 µs).
        @example([1.0, 1.192092896e-07], 0.5)
        @given(
            st.lists(
                st.floats(min_value=1e-7, max_value=1e3, allow_nan=False),
                min_size=1,
                max_size=60,
            ),
            st.sampled_from([0.5, 0.9, 0.95, 0.99]),
        )
        def check(samples, q):
            hist = LatencyHistogram()
            for s in samples:
                hist.record(s)
            ordered = sorted(samples)
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            reported = hist.percentile(q)
            assert reported >= min(exact, hist.max) * 0.999
            assert reported <= max(exact * BUCKET_RATIO * 1.001, 1e-6)

        check()


class TestMetricsAggregator:
    def test_ingest_populates_all_families(self):
        agg = MetricsAggregator()
        trace = [
            {"name": "saturate", "duration": 0.01},
            {"name": "extract", "duration": 0.002},
        ]
        agg.ingest(model="gear", seconds=0.05, trace=trace)
        agg.ingest(model="gear", seconds=0.001, cache_tier="exact")
        snap = agg.snapshot()
        assert snap["jobs"]["count"] == 2
        assert snap["phases"]["saturate"]["count"] == 1
        assert snap["phases"]["extract"]["p50"] > 0.0
        assert snap["models"]["gear"]["count"] == 2
        assert snap["cache_tiers"]["fresh"]["count"] == 1
        assert snap["cache_tiers"]["exact"]["count"] == 1
        assert snap["spans_ingested"] == 2

    def test_model_cardinality_is_capped(self):
        agg = MetricsAggregator()
        for i in range(200):
            agg.ingest(model=f"model-{i}", seconds=0.001)
        snap = agg.snapshot()
        assert len(snap["models"]) <= 65  # cap + overflow bucket
        assert "__other__" in snap["models"]
        total = sum(entry["count"] for entry in snap["models"].values())
        assert total == 200  # overflow aggregates, never drops

    def test_format_latency_table_empty_and_populated(self):
        assert "no latency data" in format_latency_table(None)
        assert "no latency data" in format_latency_table(MetricsAggregator().snapshot())
        agg = MetricsAggregator()
        agg.ingest(model="gear", seconds=0.05, trace=[{"name": "saturate", "duration": 0.01}])
        table = format_latency_table(agg.snapshot())
        assert "saturate" in table
        assert "p95" in table


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExport:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("job", {"name": "gear"}):
            with tracer.span("parse"):
                pass
        return tracer.export()

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = span_lines("job1", "gear", self._trace())
        assert write_trace_jsonl(path, lines) == 2
        # Appending interleaves jobs safely.
        write_trace_jsonl(path, span_lines("job2", "hinge", self._trace()))
        records = read_trace_jsonl(path)
        assert len(records) == 4
        assert {r["job_id"] for r in records} == {"job1", "job2"}
        assert all("duration" in r and "name" in r for r in records)

    def test_chrome_trace_structure(self, tmp_path):
        records = span_lines("job1", "gear", self._trace()) + span_lines(
            "job2", "hinge", self._trace()
        )
        trace = chrome_trace(records)
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 4
        assert len(meta) == 2  # one process_name per job
        assert {e["pid"] for e in complete} == {1, 2}
        assert all(e["ts"] >= 0.0 and e["dur"] >= 0.0 for e in complete)
        out = tmp_path / "chrome.json"
        assert write_chrome_trace(out, records) == 4
        json.loads(out.read_text())


# ---------------------------------------------------------------------------
# End-to-end instrumentation
# ---------------------------------------------------------------------------


class TestPipelineTracing:
    def test_traced_synthesize_produces_well_formed_phases(self):
        tracer = Tracer()
        result = synthesize(_chain(5), SynthesisConfig(), tracer=tracer)
        assert result.candidates
        spans = tracer.export()
        assert validate_spans(spans) == []
        names = {s["name"] for s in spans}
        assert {"setup", "saturate", "determinize", "extract", "iteration"} <= names
        # search/apply/rebuild nest under iteration, iteration under saturate.
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            if span["name"] in ("search", "apply", "rebuild"):
                assert by_id[span["parent_id"]]["name"] == "iteration"
            if span["name"] == "iteration":
                assert by_id[span["parent_id"]]["name"] == "saturate"

    def test_inference_spans_nest_under_determinize_and_count_work(self):
        tracer = Tracer()
        result = synthesize(_chain(6), SynthesisConfig(), tracer=tracer)
        spans = tracer.export()
        by_id = {s["span_id"]: s for s in spans}
        (determinize,) = [s for s in spans if s["name"] == "determinize"]
        passes = [s for s in spans if s["name"] in ("function_inference", "loop_inference")]
        assert [s["name"] for s in passes] == ["function_inference", "loop_inference"]
        for span in passes:
            assert by_id[span["parent_id"]] is determinize
            attrs = span["attrs"]
            assert 0 <= attrs["solver_memo_hits"] <= attrs["solver_calls"]
            assert 0 <= attrs["solver_column_memo_hits"] <= attrs["solver_columns"]
            assert 0 <= attrs["materialize_memo_hits"] <= attrs["materialize_calls"]
            # Inference merges only into classes no materialized answer read.
            assert attrs["materialize_memo_drops"] == 0
        function_attrs = passes[0]["attrs"]
        assert function_attrs["lists"] > 0 and function_attrs["solver_calls"] > 0
        assert function_attrs["solver_columns"] > 0
        assert function_attrs["enodes_added"] > 0
        records = sum(s["attrs"]["records"] for s in passes)
        assert records == determinize["attrs"]["inference_records"]
        assert records == len(result.inference_records) > 0

    def test_inference_spans_count_the_solvers_arithmetic(self, monkeypatch):
        """The solver work counters agree with counts taken at the calls."""
        import numpy as np

        import repro.solvers.closed_form as closed_form
        from repro.benchsuite.suite import get_benchmark

        calls = {"lstsq": 0, "sinusoid": 0, "rejected": 0}
        lstsq, fit_sinusoid = np.linalg.lstsq, closed_form.fit_sinusoid

        def counted_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        def counted_fit_sinusoid(values, *args, **kwargs):
            calls["sinusoid"] += len(values) >= 4
            solves = calls["lstsq"]
            form = fit_sinusoid(values, *args, **kwargs)
            # A rejected column solves its recurrence and nothing else; any
            # other fit solves one design per scanned frequency.
            calls["rejected"] += form is None and calls["lstsq"] - solves == 1
            return form

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        monkeypatch.setattr(closed_form, "fit_sinusoid", counted_fit_sinusoid)
        tracer = Tracer()
        synthesize(get_benchmark("cnc-end-mill").build(), SynthesisConfig(), tracer=tracer)
        passes = [s for s in tracer.export() if s["name"] in ("function_inference", "loop_inference")]

        def total(key):
            return sum(span["attrs"][key] for span in passes)

        assert total("solver_lstsq_solves") == calls["lstsq"] > 0
        assert total("solver_sinusoid_fits") == calls["sinusoid"] > 0
        assert 0 < total("solver_sinusoid_rejections") == calls["rejected"] <= calls["sinusoid"]
        assert 0 < total("solver_constant_shortcuts") <= total("solver_columns")

    def test_extract_span_counts_streams_pops_and_scc_classes(self):
        from repro.benchsuite.suite import get_benchmark

        tracer = Tracer()
        synthesize(get_benchmark("gear").build(), SynthesisConfig(), tracer=tracer)
        (extract,) = [s for s in tracer.export() if s["name"] == "extract"]
        attrs = extract["attrs"]
        for key in ("streams", "expanded", "pops", "scc_classes"):
            assert isinstance(attrs[key], int) and attrs[key] > 0, key
        # Only the classes the answer needs are expanded; the SCC index
        # still visits every class reachable from the root.
        assert attrs["expanded"] <= attrs["streams"]
        assert attrs["expanded"] < attrs["scc_classes"]

    def test_iteration_spans_carry_report_counters(self):
        tracer = Tracer()
        result = synthesize(_chain(4), SynthesisConfig(), tracer=tracer)
        iteration_spans = [s for s in tracer.export() if s["name"] == "iteration"]
        reported = [it for report in result.run_reports for it in report.iterations]
        assert len(iteration_spans) == len(reported)
        for span, it_report in zip(iteration_spans, reported):
            assert span["attrs"]["matches"] == sum(it_report.matches.values())
            assert span["attrs"]["firings"] == sum(it_report.firings.values())
            assert span["attrs"]["enodes_after"] == it_report.enodes_after
            assert span["attrs"]["index"] == it_report.index

    def test_untraced_synthesize_unchanged(self):
        # The default path routes through NULL_TRACER and records nothing;
        # results are identical to a traced run.
        plain = synthesize(_chain(4), SynthesisConfig())
        traced = synthesize(_chain(4), SynthesisConfig(), tracer=Tracer())
        assert [c.term for c in plain.candidates] == [c.term for c in traced.candidates]
        assert [c.cost for c in plain.candidates] == [c.cost for c in traced.candidates]

    def test_span_trees_well_formed_under_randomized_configs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=8, deadline=None)
        @given(
            n=st.integers(min_value=2, max_value=5),
            rewrite_iterations=st.integers(min_value=1, max_value=6),
            top_k=st.integers(min_value=1, max_value=3),
        )
        def check(n, rewrite_iterations, top_k):
            config = SynthesisConfig(rewrite_iterations=rewrite_iterations, top_k=top_k)
            tracer = Tracer()
            synthesize(_chain(n), config, tracer=tracer)
            assert tracer.open_spans == 0  # every span closed
            problems = validate_spans(tracer.export())
            assert problems == [], problems

        check()


class TestWorkerTracing:
    def test_payload_trace_flag_ships_span_tree(self):
        job = SynthesisJob(name="chain", term=_chain(5), trace=True)
        outcome = execute_payload(job.payload())
        assert outcome["status"] == "succeeded"
        spans = outcome["trace"]
        assert validate_spans(spans) == []
        names = [s["name"] for s in spans]
        assert names.count("job") == 1
        assert "parse" in names and "saturate" in names and "extract" in names

    def test_trace_disabled_by_default(self):
        job = SynthesisJob(name="chain", term=_chain(5))
        assert job.payload()["trace"] is False
        outcome = execute_payload(job.payload())
        assert outcome["status"] == "succeeded"
        assert "trace" not in outcome

    def test_spans_cover_job_wall_time(self):
        # Acceptance criterion: the phase spans account for >= 95% of the
        # job span's wall time (nothing significant runs untraced).
        job = SynthesisJob(name="chain", term=_chain(8), trace=True)
        outcome = execute_payload(job.payload())
        spans = outcome["trace"]
        job_span = next(s for s in spans if s["name"] == "job")
        children = [s for s in spans if s.get("parent_id") == job_span["span_id"]]
        coverage = sum(c["duration"] for c in children) / job_span["duration"]
        assert coverage >= 0.95, f"span coverage only {coverage:.1%}"
