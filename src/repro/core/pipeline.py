"""The Szalinski synthesis pipeline (paper Fig. 5).

``synthesize`` takes a flat CSG term and returns the top-k equivalent
LambdaCAD programs in one straight pass:

1. build an e-graph from the input AST and the saturation runner;
2. apply the syntactic rewrites to saturation (uninterpreted component);
3. run the arithmetic components over the folded lists — closed-form
   function inference, then nested-loop inference — which determinize and
   reorder each list and merge ``Mapi``/``Fold``-based e-nodes back into
   the e-graph;
4. extract the top-k programs under the configured cost function.

Fig. 5 repeats steps 2 and 3 until its fuel runs out.  One iteration was
enough for every model in the paper's evaluation, and the pinned golden
top-k of the bundled suite is the one-iteration output.  A second
iteration is not free polish: it re-infers over the lists the first one
solved (twice the inference records) and changes the top-k of five of
the sixteen Table 1 models.  So the pipeline runs steps 2 and 3 once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cad.ops import uses_loops
from repro.core.config import SynthesisConfig
from repro.core.cost import get_cost_function
from repro.core.determinize import Determinizer
from repro.core.function_inference import FunctionInference, InferenceRecord
from repro.core.loop_inference import LoopInference
from repro.core.rules import default_rules
from repro.csg.metrics import TermMetrics, measure
from repro.egraph.egraph import EGraph
from repro.egraph.extract import TopKExtractor
from repro.egraph.pattern import CompiledRuleSet
from repro.egraph.runner import Runner, RunnerLimits, RunReport
from repro.lang.canon import canonical_term_text, term_from_canonical
from repro.lang.term import Term
from repro.obs.trace import NULL_TRACER
from repro.solvers.closed_form import FunctionSolver


@dataclass(frozen=True)
class CandidateProgram:
    """One extracted program with its rank (1-based) and cost."""

    rank: int
    cost: float
    term: Term

    @property
    def has_loops(self) -> bool:
        """True when the program exposes structure via Fold/Map/Mapi/Repeat."""
        return uses_loops(self.term)

    def to_dict(self) -> dict:
        """JSON-able snapshot; the term is stored as canonical s-expression text."""
        return {"rank": self.rank, "cost": self.cost, "term": canonical_term_text(self.term)}

    @staticmethod
    def from_dict(data: dict) -> "CandidateProgram":
        """Rebuild a candidate from :meth:`to_dict` output."""
        return CandidateProgram(
            rank=data["rank"], cost=data["cost"], term=term_from_canonical(data["term"])
        )


@dataclass
class SynthesisResult:
    """The pipeline's answer for one input model: its top-k programs.

    ``input_term``, ``candidates``, ``seconds`` and ``config`` are the
    answer; :meth:`to_dict` stores exactly those.  ``inference_records``,
    ``run_reports`` and ``extract_seconds`` are the run's diagnostics: they
    are filled on the object :func:`synthesize` returns and empty on one
    rebuilt by :meth:`from_dict`.
    """

    input_term: Term
    candidates: List[CandidateProgram]
    #: What function and loop inference added, in the order they ran
    #: (in-process only).
    inference_records: List[InferenceRecord] = field(default_factory=list)
    #: The saturation run's report, per-iteration statistics included
    #: (in-process only).
    run_reports: List[RunReport] = field(default_factory=list)
    seconds: float = 0.0
    #: Wall-clock seconds of the final extraction phase alone (top-k over
    #: the saturated e-graph); part of ``seconds`` (in-process only).
    extract_seconds: float = 0.0
    config: Optional[SynthesisConfig] = None
    #: :meth:`headline`, once measured.
    _headline: Optional[Dict[str, object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- accessors -----------------------------------------------------------------

    @property
    def best(self) -> CandidateProgram:
        """The lowest-cost candidate."""
        return self.candidates[0]

    def best_structured(self) -> Optional[CandidateProgram]:
        """The highest-ranked candidate that exposes loops, if any."""
        for candidate in self.candidates:
            if candidate.has_loops:
                return candidate
        return None

    def structured_rank(self) -> Optional[int]:
        """Rank (1-based) of the first structured candidate (Table 1 column r)."""
        structured = self.best_structured()
        return None if structured is None else structured.rank

    def output_term(self) -> Term:
        """The program reported in Table 1: the structured one when it exists."""
        structured = self.best_structured()
        return (structured or self.best).term

    # -- metrics -------------------------------------------------------------------

    def input_metrics(self) -> TermMetrics:
        return measure(self.input_term)

    def output_metrics(self) -> TermMetrics:
        return measure(self.output_term())

    def size_reduction(self) -> float:
        """Fractional node-count reduction of the output vs the input."""
        return self.output_metrics().size_reduction_vs(self.input_metrics())

    def exposes_structure(self) -> bool:
        """True when any top-k candidate contains loops."""
        return self.best_structured() is not None

    def headline(self) -> Dict[str, object]:
        """Candidate count, best cost, structure and size reduction.

        The four numbers a job summary reports, measured on the first call
        and kept: the service hands one cached result to every hit, so its
        terms are measured once, not once per hit.  The candidates must not
        change afterwards.  Two threads may both measure a fresh result;
        they store equal numbers.
        """
        if self._headline is None:
            self._headline = {
                "candidates": len(self.candidates),
                "best_cost": self.best.cost if self.candidates else None,
                "exposes_structure": self.exposes_structure(),
                "size_reduction": self.size_reduction(),
            }
        return dict(self._headline)

    def loop_summary(self) -> str:
        """The Table 1 ``n-l`` column: loop nests of the reported output program."""
        from repro.core.analysis import find_loops

        loops = find_loops(self.output_term())
        if not loops:
            return "-"
        best = max(loops, key=lambda loop: (loop.nesting, max(loop.bounds)))
        return best.label()

    def function_summary(self) -> str:
        """The Table 1 ``f`` column: function classes used by the output program."""
        from repro.core.analysis import function_kinds

        kinds = function_kinds(self.output_term())
        return ", ".join(kinds) or "-"

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-able snapshot of the answer: input, candidates, seconds, config.

        Terms are stored as canonical s-expression text (exact float
        round-trip), so ``from_dict(to_dict())`` reproduces every candidate,
        cost, metric and summary this result can report.  This is the
        format the batch service's workers ship across process boundaries
        and the content-addressed disk cache persists.  The diagnostics
        (``inference_records``, ``run_reports``, ``extract_seconds``) are
        not stored.
        """
        return {
            "input_term": canonical_term_text(self.input_term),
            "candidates": [candidate.to_dict() for candidate in self.candidates],
            "seconds": self.seconds,
            "config": self.config.to_dict() if self.config is not None else None,
        }

    @staticmethod
    def from_dict(data: dict) -> "SynthesisResult":
        """Rebuild a result from :meth:`to_dict` output; diagnostics come back empty.

        Other keys are ignored, so entries written by older versions, which
        also stored the diagnostics, still load.
        """
        config = data.get("config")
        return SynthesisResult(
            input_term=term_from_canonical(data["input_term"]),
            candidates=[CandidateProgram.from_dict(c) for c in data["candidates"]],
            seconds=data.get("seconds", 0.0),
            config=SynthesisConfig.from_dict(config) if config is not None else None,
        )


@lru_cache(maxsize=16)
def _default_rule_set(categories: Tuple[str, ...]) -> CompiledRuleSet:
    """The default rules of ``categories``, compiled once per process.

    A compiled rule set holds no e-graph state (runs keep theirs in the
    runner and its matcher), and the rules are stateless, so every run with
    the same categories shares one.
    """
    return CompiledRuleSet(default_rules(list(categories)))


def _inference_counters(inference: FunctionInference | LoopInference) -> Dict[str, int]:
    determinizer, solver = inference.determinizer, inference.solver
    return {
        "lists": determinizer.determinized_lists,
        "solver_calls": solver.calls,
        "solver_memo_hits": solver.memo_hits,
        "solver_columns": solver.column_calls,
        "solver_column_memo_hits": solver.column_memo_hits,
        "solver_constant_shortcuts": solver.work["constant_shortcuts"],
        "solver_sinusoid_fits": solver.work["sinusoid_fits"],
        "solver_sinusoid_rejections": solver.work["sinusoid_rejections"],
        "solver_lstsq_solves": solver.work["lstsq_solves"],
        "materialize_calls": determinizer.materialize_calls,
        "materialize_memo_hits": determinizer.materialize_memo_hits,
        "materialize_memo_drops": determinizer.materialize_memo_drops,
        "enodes_added": determinizer.egraph.enodes_created,
    }


def _run_inference(tracer, name: str, inference: FunctionInference | LoopInference) -> None:
    """Run one inference pass in a span carrying the work it did."""
    with tracer.span(name) as span:
        before = _inference_counters(inference)
        inference.run()
        if span is not None:
            after = _inference_counters(inference)
            span.update({key: after[key] - before[key] for key in after})
            span.update({"records": len(inference.records)})


def synthesize(
    csg: Term,
    config: Optional[SynthesisConfig] = None,
    *,
    rules: Optional[Sequence] = None,
    tracer=None,
) -> SynthesisResult:
    """Run Szalinski on a flat CSG term and return the top-k LambdaCAD programs.

    ``rules`` overrides the rewrite-rule set (used by ablation benchmarks);
    by default the rule categories named in the config are used.
    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records one span per
    phase: ``setup``, ``saturate`` (with per-iteration
    ``search``/``apply``/``rebuild`` children via the runner),
    ``determinize`` (with ``function_inference``/``loop_inference``
    children) and ``extract``.  The caller owns the enclosing root span
    (the worker wraps everything in a ``job`` span); when ``tracer`` is
    omitted the shared null tracer makes every span a no-op.
    """
    config = config or SynthesisConfig()
    tracer = NULL_TRACER if tracer is None else tracer
    start = time.perf_counter()

    with tracer.span("setup") as setup_span:
        egraph = EGraph()
        root = egraph.add_term(csg)

        rule_set = rules if rules is not None else _default_rule_set(tuple(config.rule_categories))
        limits = RunnerLimits(
            max_iterations=config.rewrite_iterations,
            max_enodes=config.max_enodes,
            max_seconds=config.max_seconds,
        )
        # The rule patterns are compiled into one discrimination trie: per
        # call for an explicit ``rules``, once per process for the default
        # sets.
        runner = Runner(rule_set, limits, tracer=tracer)
        if setup_span is not None:
            setup_span.update({"rules": len(runner.rules), "enodes": egraph.total_enodes})

    with tracer.span("saturate") as sat_span:
        run_report = runner.run(egraph)
        if sat_span is not None:
            sat_span.update(
                {
                    "iterations": len(run_report.iterations),
                    "stop_reason": run_report.stop_reason.value,
                    "enodes": egraph.total_enodes,
                    "classes": len(egraph),
                }
            )

    with tracer.span("determinize") as det_span:
        # One determinizer and one solver serve both passes, so each pass
        # reuses what the other already materialized, solved and added.
        determinizer = Determinizer(egraph)
        solver = FunctionSolver(config.epsilon)
        function_inference = FunctionInference(config, determinizer, solver)
        _run_inference(tracer, "function_inference", function_inference)
        loop_inference = LoopInference(config, determinizer, solver)
        _run_inference(tracer, "loop_inference", loop_inference)
        egraph.rebuild()
        inference_records = function_inference.records + loop_inference.records
        if det_span is not None:
            det_span.update({"inference_records": len(inference_records)})

    cost_function = get_cost_function(config.cost_function)
    extract_start = time.perf_counter()
    with tracer.span("extract") as ext_span:
        extractor = TopKExtractor(egraph, cost_function, k=config.top_k)

        # Combine two views of the root e-class: one candidate per distinct root
        # e-node (this is what gives the returned set its diversity — the lifted
        # flat variant, the folded/structured variant, and the original chain are
        # different root e-nodes) plus the globally cheapest terms, de-duplicated
        # and capped at top-k.
        per_enode = extractor.best_per_enode(root)
        global_top = extractor.extract_top_k(root)
        combined = []
        seen_terms = set()
        for entry in per_enode + global_top:
            if entry.term in seen_terms:
                continue
            seen_terms.add(entry.term)
            combined.append(entry)
        combined.sort(key=lambda entry: entry.cost)
        combined = combined[: config.top_k]
        candidates = [
            CandidateProgram(rank=index + 1, cost=entry.cost, term=entry.term)
            for index, entry in enumerate(combined)
        ]
        if ext_span is not None:
            ext_span.update(
                {
                    "top_k": config.top_k,
                    "candidates": len(candidates),
                    "best_cost": candidates[0].cost if candidates else 0.0,
                }
            )
            ext_span.update(extractor.counters())
        # Release the e-graph and everything built on it inside the span, not
        # when this frame returns, so a trace accounts for the release.
        del egraph, rule_set, runner, determinizer, solver
        del function_inference, loop_inference, extractor
    extract_seconds = time.perf_counter() - extract_start

    return SynthesisResult(
        input_term=csg,
        candidates=candidates,
        inference_records=inference_records,
        run_reports=[run_report],
        seconds=time.perf_counter() - start,
        extract_seconds=extract_seconds,
        config=config,
    )
