"""The main Szalinski synthesis loop (paper Fig. 5).

``synthesize`` takes a flat CSG term and returns the top-k equivalent
LambdaCAD programs:

1. build an e-graph from the input AST;
2. until the fuel runs out (one outer iteration by default, as in the paper):
   a. apply the syntactic rewrites to saturation (uninterpreted component),
   b. determinize folded lists, reorder them, and run the arithmetic
      components — closed-form function inference and nested-loop
      inference — which merge ``Mapi``/``Fold``-based e-nodes back into the
      e-graph;
3. extract the top-k programs under the configured cost function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cad.ops import uses_loops
from repro.core.config import SynthesisConfig
from repro.core.cost import get_cost_function
from repro.core.function_inference import FunctionInference, InferenceRecord
from repro.core.loop_inference import LoopInference
from repro.core.rules import default_rules
from repro.csg.metrics import TermMetrics, measure
from repro.egraph.egraph import EGraph
from repro.egraph.extract import CostAnalysis, TopKExtractor, ast_size_cost
from repro.egraph.pattern import CompiledRuleSet
from repro.egraph.runner import BackoffConfig, Runner, RunnerLimits, RunReport
from repro.lang.canon import canonical_term_text, term_from_canonical
from repro.lang.term import Term
from repro.obs.trace import NULL_TRACER


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
    """Everything the pipeline produced for one input model."""

    input_term: Term
    candidates: List[CandidateProgram]
    inference_records: List[InferenceRecord] = field(default_factory=list)
    run_reports: List[RunReport] = field(default_factory=list)
    seconds: float = 0.0
    #: Wall-clock seconds of the final extraction phase alone (top-k over
    #: the saturated e-graph); part of ``seconds``.
    extract_seconds: float = 0.0
    config: Optional[SynthesisConfig] = None

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
        """A JSON-able snapshot of the whole result.

        Terms are stored as canonical s-expression text (exact float
        round-trip), so ``from_dict(to_dict())`` reproduces every metric,
        summary, and candidate this result can report.  This is the format
        the batch service's workers ship across process boundaries and the
        content-addressed disk cache persists.
        """
        return {
            "input_term": canonical_term_text(self.input_term),
            "candidates": [candidate.to_dict() for candidate in self.candidates],
            "inference_records": [record.to_dict() for record in self.inference_records],
            "run_reports": [report.to_dict() for report in self.run_reports],
            "seconds": self.seconds,
            "extract_seconds": self.extract_seconds,
            "config": self.config.to_dict() if self.config is not None else None,
        }

    @staticmethod
    def from_dict(data: dict) -> "SynthesisResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.core.config import SynthesisConfig

        config = data.get("config")
        return SynthesisResult(
            input_term=term_from_canonical(data["input_term"]),
            candidates=[CandidateProgram.from_dict(c) for c in data["candidates"]],
            inference_records=[
                InferenceRecord.from_dict(r) for r in data.get("inference_records", [])
            ],
            run_reports=[RunReport.from_dict(r) for r in data.get("run_reports", [])],
            seconds=data.get("seconds", 0.0),
            extract_seconds=data.get("extract_seconds", 0.0),
            config=SynthesisConfig.from_dict(config) if config is not None else None,
        )


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
    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records per-phase spans:
    ``saturate`` and ``determinize`` per outer iteration (each ``saturate``
    containing per-iteration ``search``/``apply``/``rebuild`` children via
    the runner), then ``extract``.  The caller owns the enclosing root span
    (the worker wraps everything in a ``job`` span); when ``tracer`` is
    omitted the shared null tracer makes every span a no-op.
    """
    config = config or SynthesisConfig()
    tracer = NULL_TRACER if tracer is None else tracer
    start = time.perf_counter()

    with tracer.span("setup") as setup_span:
        egraph = EGraph()
        root = egraph.add_term(csg)

        rule_set = (
            list(rules) if rules is not None else default_rules(list(config.rule_categories))
        )
        limits = RunnerLimits(
            max_iterations=config.rewrite_iterations,
            max_enodes=config.max_enodes,
            max_seconds=config.max_seconds,
        )
        backoff = BackoffConfig(
            match_limit=config.rule_match_limit,
            ban_length=config.rule_ban_length,
        )
        # Compile the rule patterns into the shared discrimination trie once;
        # every saturation run of the outer loop reuses it.
        compiled = CompiledRuleSet(rule_set)
        # The incremental cost analysis rides along during saturation (the
        # runner registers it): single-best extraction — extract_any and every
        # determinizer query inside the arithmetic components — then reads
        # ready-made (best cost, witness) pairs instead of recomputing a
        # worklist fixpoint per extractor.
        analyses = [CostAnalysis(ast_size_cost)]
        if setup_span is not None:
            setup_span.update({"rules": len(rule_set), "enodes": egraph.total_enodes})

    inference_records: List[InferenceRecord] = []
    run_reports: List[RunReport] = []

    for outer in range(max(1, config.main_iterations)):
        runner = Runner(
            rule_set, limits, backoff=backoff, compiled=compiled, analyses=analyses, tracer=tracer
        )
        with tracer.span("saturate") as sat_span:
            run_report = runner.run(egraph)
            run_reports.append(run_report)
            if sat_span is not None:
                sat_span.update(
                    {
                        "outer_iteration": outer,
                        "iterations": len(run_report.iterations),
                        "stop_reason": run_report.stop_reason.value,
                        "enodes": egraph.total_enodes,
                        "classes": len(egraph),
                    }
                )

        with tracer.span("determinize") as det_span:
            records_before = len(inference_records)
            changed = False
            if config.enable_function_inference:
                function_inference = FunctionInference(egraph, config)
                if function_inference.run():
                    changed = True
                inference_records.extend(function_inference.records)
            if config.enable_loop_inference:
                loop_inference = LoopInference(egraph, config)
                if loop_inference.run():
                    changed = True
                inference_records.extend(loop_inference.records)
            egraph.rebuild()
            if det_span is not None:
                det_span.update(
                    {
                        "outer_iteration": outer,
                        "changed": changed,
                        "inference_records": len(inference_records) - records_before,
                    }
                )
        if not changed:
            break

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
    extract_seconds = time.perf_counter() - extract_start

    return SynthesisResult(
        input_term=csg,
        candidates=candidates,
        inference_records=inference_records,
        run_reports=run_reports,
        seconds=time.perf_counter() - start,
        extract_seconds=extract_seconds,
        config=config,
    )
