"""The Table 1 harness.

Runs Szalinski over every benchmark and reports the same columns as the
paper's Table 1: input/output AST node counts (#i-ns / #o-ns), primitive
counts (#i-p / #o-p), AST depths (#i-d / #o-d), the loop structure (n-l), the
function class (f), the synthesis time, and the rank of the structured
program among the top-5 — plus the headline aggregates (average size
reduction and the fraction of models whose structure was exposed).

Two drivers share the row construction: the original serial
:func:`run_table1`, and the service-backed :func:`run_table1_batch`, which
routes the suite through :class:`~repro.service.service.SynthesisService`
for process parallelism (``worker_count``), content-addressed caching
(``cache``), and per-model failure isolation — a model that crashes becomes
a failure line in the summary instead of aborting the run.  Both drivers
produce identical row content for identical inputs (only the measured
seconds differ); ``tests/test_batch_differential.py`` pins this.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.benchsuite.suite import BENCHMARKS, Benchmark
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisResult, synthesize
from repro.lang.term import Term
from repro.service.cache import ResultCache
from repro.service.job import JobResult, SynthesisJob
from repro.service.service import BatchReport, SynthesisService


@dataclass
class Table1Row:
    """One row of the reproduced Table 1."""

    name: str
    source: str
    input_nodes: int
    output_nodes: int
    input_primitives: int
    output_primitives: int
    input_depth: int
    output_depth: int
    loops: str
    functions: str
    seconds: float
    rank: Optional[int]
    exposes_structure: bool
    expected_structure: bool

    @property
    def size_reduction(self) -> float:
        if self.input_nodes == 0:
            return 0.0
        return 1.0 - self.output_nodes / self.input_nodes

    @property
    def matches_expectation(self) -> bool:
        return self.exposes_structure == self.expected_structure

    def to_dict(self) -> dict:
        """JSON-able snapshot (what ``--report`` files embed)."""
        return {
            "name": self.name,
            "source": self.source,
            "input_nodes": self.input_nodes,
            "output_nodes": self.output_nodes,
            "input_primitives": self.input_primitives,
            "output_primitives": self.output_primitives,
            "input_depth": self.input_depth,
            "output_depth": self.output_depth,
            "loops": self.loops,
            "functions": self.functions,
            "seconds": self.seconds,
            "rank": self.rank,
            "exposes_structure": self.exposes_structure,
            "expected_structure": self.expected_structure,
            "size_reduction": self.size_reduction,
        }


def row_from_result(
    benchmark: Benchmark, result: SynthesisResult, seconds: float
) -> Table1Row:
    """Build a benchmark's Table 1 row from a finished synthesis result.

    Shared by the serial and service-backed drivers (and by the cached path:
    the canonical serialization round-trips terms exactly, so a result read
    back from the cache produces an identical row).
    """
    input_metrics = result.input_metrics()
    output_metrics = result.output_metrics()
    return Table1Row(
        name=benchmark.label(),
        source=benchmark.source,
        input_nodes=input_metrics.nodes,
        output_nodes=output_metrics.nodes,
        input_primitives=input_metrics.primitives,
        output_primitives=output_metrics.primitives,
        input_depth=input_metrics.depth,
        output_depth=output_metrics.depth,
        loops=result.loop_summary(),
        functions=result.function_summary(),
        seconds=seconds,
        rank=result.structured_rank(),
        exposes_structure=result.exposes_structure(),
        expected_structure=benchmark.expects_structure,
    )


def run_benchmark(
    benchmark: Benchmark, config: Optional[SynthesisConfig] = None
) -> Table1Row:
    """Run one benchmark serially and produce its Table 1 row."""
    config = config or SynthesisConfig(cost_function=benchmark.cost_function)
    flat = benchmark.build()
    start = time.perf_counter()
    result: SynthesisResult = synthesize(flat, config)
    elapsed = time.perf_counter() - start
    return row_from_result(benchmark, result, elapsed)


def run_table1(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    config: Optional[SynthesisConfig] = None,
) -> List[Table1Row]:
    """Run the whole suite (or a subset) serially and return the rows in order."""
    rows = []
    for benchmark in benchmarks or BENCHMARKS:
        row_config = config or SynthesisConfig(cost_function=benchmark.cost_function)
        rows.append(run_benchmark(benchmark, row_config))
    return rows


# ---------------------------------------------------------------------------
# Service-backed driver (parallel workers, result cache, failure isolation)
# ---------------------------------------------------------------------------


def benchmark_jobs(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    config: Optional[SynthesisConfig] = None,
    timeout: Optional[float] = None,
    mutate: Optional[Callable[[Term], Term]] = None,
) -> Tuple[List[SynthesisJob], List[JobResult]]:
    """Build service jobs for a benchsuite selection.

    Returns ``(jobs, build_failures)``: a benchmark whose *builder* raises
    (before any synthesis happens) becomes a pre-failed :class:`JobResult`
    instead of aborting job creation for the rest of the selection.

    ``mutate`` rewrites each built term before it becomes a job — the hook
    the semantic-cache CI check uses to run the suite over semantically
    equal respellings (see :mod:`repro.benchsuite.variants`).
    """
    jobs: List[SynthesisJob] = []
    failures: List[JobResult] = []
    for benchmark in benchmarks or BENCHMARKS:
        job_config = config or SynthesisConfig(cost_function=benchmark.cost_function)
        try:
            flat = benchmark.build()
            if mutate is not None:
                flat = mutate(flat)
        except Exception:
            failures.append(
                JobResult.failure(
                    f"build:{benchmark.name}", benchmark.name, traceback.format_exc()
                )
            )
            continue
        jobs.append(
            SynthesisJob(name=benchmark.name, term=flat, config=job_config, timeout=timeout)
        )
    return jobs, failures


@dataclass
class Table1Report:
    """A service-backed Table 1 run: rows for the successes, failures apart."""

    rows: List[Table1Row]
    failures: List[JobResult] = field(default_factory=list)
    batch: Optional[BatchReport] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """JSON-able report (the CLI's ``--report`` payload)."""
        return {
            "rows": [row.to_dict() for row in self.rows],
            "failures": [failure.to_dict() for failure in self.failures],
            "average_size_reduction": average_size_reduction(self.rows),
            "structure_exposure_rate": structure_exposure_rate(self.rows),
            "batch": self.batch.to_dict() if self.batch is not None else None,
        }


def run_table1_batch(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    config: Optional[SynthesisConfig] = None,
    *,
    worker_count: int = 0,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    on_event=None,
    mutate: Optional[Callable[[Term], Term]] = None,
) -> Table1Report:
    """Run the suite through the batch service.

    ``worker_count=0`` executes in-process (still with per-model error
    capture); ``worker_count >= 1`` fans models out across up to that many
    long-lived worker processes (startup paid once per worker; a crash or
    timeout costs only its own model).  With a ``cache``, warm re-runs of
    unchanged models are served without synthesizing.  Rows come back in
    benchmark order and carry the
    same content as :func:`run_table1`'s (timing aside); models that failed
    or timed out are reported in ``failures`` instead of as rows.
    """
    benchmarks = list(benchmarks or BENCHMARKS)
    jobs, failures = benchmark_jobs(benchmarks, config, timeout=timeout, mutate=mutate)
    service = SynthesisService(worker_count=worker_count, cache=cache, on_event=on_event)
    batch = service.run_batch(jobs)

    by_name = {benchmark.name: benchmark for benchmark in benchmarks}
    rows: List[Table1Row] = []
    for job_result in batch.results:
        if job_result.ok:
            rows.append(
                row_from_result(by_name[job_result.name], job_result.result, job_result.seconds)
            )
        else:
            failures.append(job_result)
    return Table1Report(rows=rows, failures=failures, batch=batch)


def average_size_reduction(rows: Sequence[Table1Row]) -> float:
    """The paper's headline aggregate: mean fractional node-count reduction."""
    if not rows:
        return 0.0
    return sum(row.size_reduction for row in rows) / len(rows)


def structure_exposure_rate(rows: Sequence[Table1Row]) -> float:
    """Fraction of models for which loops/functions were exposed."""
    if not rows:
        return 0.0
    return sum(1 for row in rows if row.exposes_structure) / len(rows)


def format_table(
    rows: Sequence[Table1Row], failures: Sequence[JobResult] = ()
) -> str:
    """Render the rows as an aligned text table (like the paper's Table 1).

    ``failures`` (from a service-backed run) are appended as one line each
    after the aggregates, so a crashed model is visible without drowning the
    table in tracebacks.
    """
    header = (
        f"{'Name':<24}{'#i-ns':>7}{'#o-ns':>7}{'#i-p':>6}{'#o-p':>6}"
        f"{'#i-d':>6}{'#o-d':>6}  {'n-l':<12}{'f':<8}{'t(s)':>8}{'r':>4}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<24}{row.input_nodes:>7}{row.output_nodes:>7}"
            f"{row.input_primitives:>6}{row.output_primitives:>6}"
            f"{row.input_depth:>6}{row.output_depth:>6}  "
            f"{row.loops:<12}{row.functions:<8}{row.seconds:>8.2f}"
            f"{(row.rank if row.rank is not None else '-'):>4}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"average size reduction: {average_size_reduction(rows) * 100.0:.1f}%   "
        f"structure exposed: {structure_exposure_rate(rows) * 100.0:.0f}% of models"
    )
    for failure in failures:
        lines.append(
            f"FAILED {failure.name} [{failure.status.value}]: {failure.error_summary()}"
        )
    return "\n".join(lines)
