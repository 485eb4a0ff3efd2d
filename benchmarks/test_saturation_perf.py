"""Saturation-engine performance: two-phase runner + worklist extraction.

Compares the current engine against a faithful copy of the *seed* engine on
the largest bundled benchmark model (the 60-tooth spur gear, 861 AST nodes)
with the full rule database including the expansive boolean rules:

* **seed loop** — rules run interleaved (each searches and immediately
  applies), node/time limits are checked only once per iteration, and top-k
  extraction is a whole-graph fixpoint that materializes ``Term`` objects
  for every class in every round;
* **two-phase loop** — all rules search a frozen rebuilt graph, matches are
  applied in a batch with limits enforced between applications, a backoff
  scheduler bans rules whose match counts explode, and extraction runs a
  parent-driven worklist over a DAG candidate table.

Both sides get the *same* node budget.  The seed loop cannot actually honor
it — the budget check runs only after a full interleaved iteration, by which
point the expansive rules have blown the graph up several-fold — and it then
pays again during extraction, which scales with the bloated graph.  The
assertions require the two-phase engine to (a) stay within a small factor of
the budget, (b) reach the same best extraction cost, and (c) be at least 2x
faster end to end.

The other reference designs measured here come from the test oracle
``tests/saturation_oracle.py`` (the seed loop, too, fires its rules through
the oracle's ``run_rule``); the production engine has no switch that
selects one.  A second comparison measures the *search phase* alone:
the oracle's naive per-rule e-matching sweep vs the production
compiled-trie incremental matcher on search-dominated workloads, recorded
under the ``incremental_search`` key of ``BENCH_saturation.json``.

A third comparison measures the *extraction phase* alone: post-hoc
single-best fixpoints (one worklist per query, the way the determinizer
used them inside the arithmetic components; the oracle's
:class:`PostHocExtractor`) vs the production :class:`Extractor`, whose
query is an O(answer) walk over the best-cost slots every e-class keeps
during saturation.  Recorded under the ``extraction`` key.

A fourth measures the *apply phase*: the oracle's ledger-free
reference runner vs the production applied-match ledger, both searching
with the production incremental matcher (``apply_dedup`` key).

The speedup floors (the ``REQUIRED_*`` constants) are asserted, and the
timings recorded in ``.benchmarks/BENCH_saturation.json`` (gitignored) at
the repository root, only under ``--bench`` (see ``benchmarks/conftest.py``):
wall-clock ratios wobble on a loaded host, so tier-1 runs this file as a
correctness smoke and CI's bench-smoke job passes ``--bench``.  Under
``--bench`` each side of every speedup runs ``BENCH_RUNS`` times,
interleaved with the other side, and each of its ``*_seconds`` timings is
the minimum over its runs; without ``--bench`` each side runs once.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import pytest

from repro.benchsuite.models import gear_model, linear_array
from repro.core.rules import all_rules, default_rules
from repro.csg.build import cube, scale
from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor, TopKExtractor, ast_size_cost
from repro.egraph.pattern import IncrementalMatcher
from repro.egraph.runner import BackoffConfig, Runner, RunnerLimits
from repro.lang.term import Term
from saturation_oracle import PostHocExtractor, ReferenceRunner, run_rule


#: The speedup the two-phase engine must demonstrate over the seed loop.
REQUIRED_SPEEDUP = 2.0

#: Runs per side of a speedup under ``--bench`` (one without it).
BENCH_RUNS = 3

#: The search-phase speedup the incremental trie matcher must demonstrate
#: over the naive per-rule sweep (PR 2's acceptance gate).
REQUIRED_SEARCH_SPEEDUP = 2.0


# ---------------------------------------------------------------------------
# Frozen copies of the seed engine (the baseline being measured against).
# ---------------------------------------------------------------------------


class SeedRunner:
    """The seed saturation loop: interleaved rules, per-iteration limit checks."""

    def __init__(self, rules, limits: RunnerLimits):
        self.rules = list(rules)
        self.limits = limits

    def run(self, egraph: EGraph) -> str:
        start = time.perf_counter()
        for _ in range(self.limits.max_iterations):
            version_before = egraph.version
            for rule in self.rules:
                run_rule(rule, egraph)  # search + apply, immediately visible to later rules
            egraph.rebuild()
            if egraph.version == version_before:
                return "saturated"
            if egraph.total_enodes > self.limits.max_enodes:
                return "node-limit"
            if time.perf_counter() - start > self.limits.max_seconds:
                return "time-limit"
        return "iteration-limit"


class SeedTopKExtractor:
    """The seed top-k extraction: whole-graph fixpoint over materialized terms."""

    def __init__(self, egraph, cost_function, k=5, max_rounds=1000, roots=None):
        self.egraph = egraph
        self.cost_function = cost_function
        self.k = k
        self.max_rounds = max_rounds
        self._table = {}
        self._restrict = self._reachable(roots) if roots is not None else None
        self._compute()

    def _reachable(self, roots):
        seen, stack = set(), [self.egraph.find(r) for r in roots]
        while stack:
            class_id = stack.pop()
            if class_id in seen:
                continue
            seen.add(class_id)
            for enode in self.egraph.nodes(class_id):
                for arg in enode.args:
                    arg = self.egraph.find(arg)
                    if arg not in seen:
                        stack.append(arg)
        return seen

    def _compute(self):
        for _ in range(self.max_rounds):
            changed = False
            for eclass in self.egraph.classes():
                class_id = self.egraph.find(eclass.id)
                if self._restrict is not None and class_id not in self._restrict:
                    continue
                candidates = {t: c for (c, t) in self._table.get(class_id, [])}
                for enode in eclass.nodes:
                    for cost, term in self._enode_candidates(enode):
                        previous = candidates.get(term)
                        if previous is None or cost < previous:
                            candidates[term] = cost
                ranked = sorted(
                    ((c, t) for t, c in candidates.items()), key=lambda r: r[0]
                )[: self.k]
                if ranked != self._table.get(class_id, []):
                    self._table[class_id] = ranked
                    changed = True
            if not changed:
                break

    def _enode_candidates(self, enode) -> List[Tuple[float, Term]]:
        if not enode.args:
            return [(self.cost_function(enode.op, ()), Term(enode.op))]
        child_lists = []
        for arg in enode.args:
            entries = self._table.get(self.egraph.find(arg))
            if not entries:
                return []
            child_lists.append(entries)
        results = []
        for indices in self._bounded_index_tuples([len(c) for c in child_lists]):
            chosen = [child_lists[i][j] for i, j in enumerate(indices)]
            cost = self.cost_function(enode.op, [c[0] for c in chosen])
            results.append((cost, Term(enode.op, tuple(c[1] for c in chosen))))
        return results

    def _bounded_index_tuples(self, lengths):
        budget, results = self.k - 1, []

        def go(position, remaining, prefix):
            if position == len(lengths):
                results.append(prefix)
                return
            limit = min(lengths[position] - 1, remaining)
            for index in range(limit + 1):
                go(position + 1, remaining - index, prefix + (index,))

        go(0, budget, ())
        return results

    def best_cost(self, class_id) -> Optional[float]:
        entries = self._table.get(self.egraph.find(class_id))
        return entries[0][0] if entries else None


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def _interleaved(bench: bool, *sides) -> List[dict]:
    """Each side's record, its timings the minimum over its runs.

    Every side is a zero-argument measurement returning a record; under
    ``--bench`` the sides run ``BENCH_RUNS`` rounds in turn (a, b, a, b,
    ...), so a slow spell of the host falls on both.  A side's record is
    its first run with each top-level ``*_seconds`` value replaced by the
    minimum over its runs, and ``runs`` says how many there were.
    """
    runs: List[List[dict]] = [[] for _ in sides]
    for _ in range(BENCH_RUNS if bench else 1):
        for measure, side_runs in zip(sides, runs):
            side_runs.append(measure())
    records = []
    for side_runs in runs:
        record = dict(side_runs[0])
        for field in record:
            if field.endswith("_seconds"):
                record[field] = min(run[field] for run in side_runs)
        record["runs"] = len(side_runs)
        records.append(record)
    return records


def _measure_seed(model: Term, rules, limits: RunnerLimits) -> dict:
    egraph = EGraph()
    root = egraph.add_term(model)
    start = time.perf_counter()
    stop = SeedRunner(rules, limits).run(egraph)
    saturated = time.perf_counter()
    extractor = SeedTopKExtractor(egraph, ast_size_cost, k=5, roots=[root])
    done = time.perf_counter()
    return {
        "engine": "seed",
        "stop_reason": stop,
        "saturate_seconds": saturated - start,
        "extract_seconds": done - saturated,
        "total_seconds": done - start,
        "enodes": egraph.total_enodes,
        "classes": len(egraph),
        "best_cost": extractor.best_cost(root),
    }


def _measure_two_phase(
    model: Term, rules, limits: RunnerLimits, backoff: BackoffConfig
) -> dict:
    egraph = EGraph()
    root = egraph.add_term(model)
    start = time.perf_counter()
    report = Runner(rules, limits, backoff=backoff).run(egraph)
    saturated = time.perf_counter()
    extractor = TopKExtractor(egraph, ast_size_cost, k=5)
    best = extractor.extract_top_k(root)[0]
    done = time.perf_counter()
    return {
        "engine": "two-phase",
        "stop_reason": report.stop_reason.value,
        "saturate_seconds": saturated - start,
        "extract_seconds": done - saturated,
        "total_seconds": done - start,
        "enodes": egraph.total_enodes,
        "classes": len(egraph),
        "best_cost": best.cost,
        "iterations": [
            {
                "index": it.index,
                "matches": sum(it.matches.values()),
                "firings": it.total_firings,
                "banned": it.banned,
                "enodes_after": it.enodes_after,
                "search_seconds": it.search_seconds,
                "apply_seconds": it.apply_seconds,
                "rebuild_seconds": it.rebuild_seconds,
            }
            for it in report.iterations
        ],
    }


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


@pytest.mark.figure
def test_two_phase_engine_at_least_2x_faster_than_seed_loop(bench, bench_record):
    """Seed loop vs two-phase loop on the gear with an enforced node budget."""
    model = gear_model()
    rules = all_rules()  # includes the expansive boolean rules
    limits = RunnerLimits(max_iterations=12, max_enodes=5_000, max_seconds=30.0)
    backoff = BackoffConfig(match_limit=1_000, ban_length=5)

    seed, two_phase = _interleaved(
        bench,
        lambda: _measure_seed(model, rules, limits),
        lambda: _measure_two_phase(model, rules, limits, backoff),
    )
    speedup = seed["total_seconds"] / max(two_phase["total_seconds"], 1e-9)

    bench_record(
        {
            "model": "3362402:gear",
            "model_nodes": model.size(),
            "node_budget": limits.max_enodes,
            "seed": seed,
            "two_phase": two_phase,
            "speedup": speedup,
        }
    )

    # Same extraction quality out of both engines.
    assert two_phase["best_cost"] == seed["best_cost"]
    # The seed loop blows straight through the budget (limits are only
    # checked between iterations); the two-phase loop must respect it up to
    # a single application's worth of overshoot.
    assert seed["enodes"] > limits.max_enodes
    assert two_phase["enodes"] <= limits.max_enodes + 100
    if bench:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"two-phase engine only {speedup:.2f}x faster than the seed loop "
            f"(seed {seed['total_seconds']:.2f}s vs {two_phase['total_seconds']:.2f}s)"
        )


@pytest.mark.figure
def test_two_phase_engine_parity_on_default_rules(bench_record):
    """With the paper's default rule set both engines find the same best."""
    model = gear_model()
    limits = RunnerLimits(max_iterations=8, max_enodes=200_000, max_seconds=60.0)

    seed = _measure_seed(model, default_rules(), limits)
    two_phase = _measure_two_phase(
        model, default_rules(), limits, BackoffConfig()
    )

    bench_record({"default_rules": {"seed": seed, "two_phase": two_phase}})

    assert two_phase["best_cost"] == seed["best_cost"]
    # No bans expected at the default threshold.
    assert all(not it["banned"] for it in two_phase["iterations"])


# ---------------------------------------------------------------------------
# Incremental e-matching (PR 2): naive sweep vs compiled-trie dirty search
# ---------------------------------------------------------------------------


def _measure_matcher(model: Term, rules, limits, backoff, incremental: bool) -> dict:
    """One saturation run; returns timings with the search phase broken out.

    ``incremental`` runs the production engine; otherwise the oracle's
    reference runner searches with the naive per-rule sweep.
    """
    egraph = EGraph()
    root = egraph.add_term(model)
    start = time.perf_counter()
    engine = Runner if incremental else ReferenceRunner
    report = engine(rules, limits, backoff=backoff).run(egraph)
    total = time.perf_counter() - start
    best = TopKExtractor(egraph, ast_size_cost, k=5).extract_top_k(root)[0]
    return {
        "matcher": "incremental-trie" if incremental else "naive",
        "stop_reason": report.stop_reason.value,
        "iterations": len(report.iterations),
        "search_seconds": sum(it.search_seconds for it in report.iterations),
        "total_seconds": total,
        "best_cost": best.cost,
        "enodes": egraph.total_enodes,
        "classes": len(egraph),
        "dirty_profile": [
            {"index": it.index, "dirty": it.dirty_classes, "searched": it.searched_classes,
             "cached": it.cached_matches}
            for it in report.iterations
        ] if incremental else None,
    }


#: Search-phase-dominated workloads: the expansive boolean rules on the
#: largest bundled model (bans keep the graph bounded while search keeps
#: paying for the whole rule database), and the incremental fold rules on a
#: long flat chain (many iterations, each dirtying only the fold frontier).
def _incremental_workloads():
    return [
        (
            "gear-expansive-boolean",
            gear_model(),
            all_rules(),
            RunnerLimits(max_iterations=12, max_enodes=5_000, max_seconds=30.0),
            BackoffConfig(match_limit=1_000, ban_length=5),
        ),
        (
            "chain-folds-80",
            linear_array(80, (3.0, 0.0, 0.0), scale(2.0, 2.0, 2.0, cube())),
            default_rules(),
            RunnerLimits(max_iterations=30, max_enodes=100_000, max_seconds=30.0),
            BackoffConfig(),
        ),
    ]


@pytest.mark.figure
def test_incremental_search_at_least_2x_faster_search_phase(bench, bench_record):
    """Naive sweep vs incremental trie on search-dominated workloads.

    The acceptance gate for the incremental e-matching subsystem: summed
    over both workloads the search phase must be >= 2x faster, with the
    extracted best costs (and final graph sizes) identical per workload.
    """
    naive_search = trie_search = 0.0
    recorded = {}
    for name, model, rules, limits, backoff in _incremental_workloads():
        naive, trie = _interleaved(
            bench,
            lambda: _measure_matcher(model, rules, limits, backoff, incremental=False),
            lambda: _measure_matcher(model, rules, limits, backoff, incremental=True),
        )
        assert trie["best_cost"] == naive["best_cost"], name
        assert trie["enodes"] == naive["enodes"], name
        assert trie["classes"] == naive["classes"], name
        naive_search += naive["search_seconds"]
        trie_search += trie["search_seconds"]
        recorded[name] = {
            "model_nodes": model.size(),
            "naive": naive,
            "incremental": trie,
            "search_speedup": naive["search_seconds"] / max(trie["search_seconds"], 1e-9),
        }
    speedup = naive_search / max(trie_search, 1e-9)
    bench_record({"incremental_search": {"workloads": recorded, "search_speedup": speedup}})
    if bench:
        assert speedup >= REQUIRED_SEARCH_SPEEDUP, (
            f"incremental search only {speedup:.2f}x faster "
            f"(naive {naive_search:.3f}s vs trie {trie_search:.3f}s)"
        )


# ---------------------------------------------------------------------------
# Incremental extraction: post-hoc fixpoints vs the built-in best-cost slots
# ---------------------------------------------------------------------------

#: The extraction-phase speedup the witness walk must demonstrate over
#: post-hoc fixpoint extraction.
REQUIRED_EXTRACTION_SPEEDUP = 2.0

#: Single-best queries per saturated graph.  The pipeline's determinizer
#: issues many, so repeated queries — each paying the full fixpoint post
#: hoc, each an O(answer) walk over the slots — are the realistic workload.
_EXTRACTION_QUERIES = 5


def _measure_queries(extractor_class, egraph: EGraph, root: int) -> dict:
    """Time repeated single-best queries, each through a fresh extractor."""
    start = time.perf_counter()
    costs = []
    term = None
    for _ in range(_EXTRACTION_QUERIES):
        extractor = extractor_class(egraph)
        costs.append(extractor.cost_of(root))
        term = extractor.extract(root)
    seconds = time.perf_counter() - start
    assert len(set(costs)) == 1
    return {
        "extract_seconds": seconds,
        "extraction_queries": _EXTRACTION_QUERIES,
        "best_cost": costs[0],
        "best_term_nodes": term.size(),
    }


@pytest.mark.figure
def test_incremental_extraction_at_least_2x_faster_extraction_phase(bench, bench_record):
    """Post-hoc fixpoint extraction vs the witness walk over the slots.

    One saturated gear serves both sides: the extraction phase — repeated
    single-best queries, as the determinizer issues them — must be >= 2x
    faster through the slots, with identical best costs.  The slots' own
    upkeep during saturation is recorded as ``analysis_updates``.
    """
    model = gear_model()
    egraph = EGraph()
    root = egraph.add_term(model)
    limits = RunnerLimits(max_iterations=12, max_enodes=5_000, max_seconds=30.0)
    backoff = BackoffConfig(match_limit=1_000, ban_length=5)
    report = Runner(all_rules(), limits, backoff=backoff).run(egraph)
    posthoc, walk = _interleaved(
        bench,
        lambda: _measure_queries(PostHocExtractor, egraph, root),
        lambda: _measure_queries(Extractor, egraph, root),
    )
    speedup = posthoc["extract_seconds"] / max(walk["extract_seconds"], 1e-9)
    analysis_updates = sum(it.analysis_updates for it in report.iterations)

    bench_record(
        {
            "extraction": {
                "model": "3362402:gear",
                "model_nodes": model.size(),
                "stop_reason": report.stop_reason.value,
                "enodes": egraph.total_enodes,
                "classes": len(egraph),
                "analysis_updates": analysis_updates,
                "post_hoc": posthoc,
                "incremental": walk,
                "extraction_speedup": speedup,
            }
        }
    )

    assert walk["best_cost"] == posthoc["best_cost"]
    assert walk["best_term_nodes"] == walk["best_cost"]
    assert analysis_updates > 0
    if bench:
        assert speedup >= REQUIRED_EXTRACTION_SPEEDUP, (
            f"incremental extraction only {speedup:.2f}x faster "
            f"(post-hoc {posthoc['extract_seconds']:.3f}s vs "
            f"witness walk {walk['extract_seconds']:.3f}s)"
        )


# ---------------------------------------------------------------------------
# Apply-phase dedup (PR 5): re-apply every match vs the applied-match ledger
# ---------------------------------------------------------------------------

#: The apply-phase / end-to-end speedups the dedup ledger must demonstrate
#: on the match-heavy workload (PR 5's acceptance gate).
REQUIRED_APPLY_DEDUP_SPEEDUP = 5.0
REQUIRED_APPLY_DEDUP_E2E_SPEEDUP = 1.5


def _affine_tower_chain(count: int) -> Term:
    """A union chain whose elements are translate∘rotate∘scale towers.

    Every pair of towers feeds the (pure-dynamic) affine reorder/collapse
    rules and the guarded lifting rules, so the match population is large,
    dominated by deduplicable rules, and — because the small-step fold rules
    advance the chain one element per iteration — rediscovered for dozens of
    epochs after it last fired anything.  This is the "8k matches, zero
    firings, yet every match re-instantiated" shape the dedup ledger exists
    for.
    """
    from repro.csg.build import cube, rotate, scale, translate, union

    def element(index: int) -> Term:
        return translate(
            3.0 * index, 0.0, 0.0,
            rotate(0.0, 0.0, 15.0 * index, scale(2.0, 2.0, 2.0, cube())),
        )

    chain = element(count - 1)
    for index in range(count - 2, -1, -1):
        chain = union(element(index), chain)
    return chain


def _small_step_rules():
    """The default rule database minus the big-step chain-fold rules.

    The big-step rule folds a whole chain in one firing; without it the
    syntactic fold-cons rules advance one element per iteration, giving the
    run a long quiescent tail in which every other match is stale — the
    match-heavy regime this benchmark measures.  (The rule mix is otherwise
    the paper's, including the guarded lifting and pure-dynamic reorder /
    collapse rules.)
    """
    return [r for r in default_rules() if not r.name.startswith("fold-chain")]


def _measure_dedup(model: Term, rules, limits: RunnerLimits, *, dedup: bool) -> dict:
    """One run of the production engine, or of the oracle's ledger-free
    reference runner over the same incremental matcher."""
    egraph = EGraph()
    root = egraph.add_term(model)
    start = time.perf_counter()
    if dedup:
        runner = Runner(rules, limits, backoff=BackoffConfig())
    else:
        runner = ReferenceRunner(
            rules, limits, backoff=BackoffConfig(), matcher=IncrementalMatcher
        )
    report = runner.run(egraph)
    total = time.perf_counter() - start
    best = Extractor(egraph).cost_of(root)
    zero_firing_late = [
        it for it in report.iterations[1:] if it.total_firings == 0 and sum(it.matches.values()) > 0
    ]
    return {
        "mode": "dedup-ledger" if dedup else "re-apply-everything",
        "stop_reason": report.stop_reason.value,
        "iterations": len(report.iterations),
        "matches": sum(sum(it.matches.values()) for it in report.iterations),
        "applied_matches": sum(it.applied_matches for it in report.iterations),
        "skipped_applications": sum(it.skipped_applications for it in report.iterations),
        "apply_seconds": sum(it.apply_seconds for it in report.iterations),
        "search_seconds": sum(it.search_seconds for it in report.iterations),
        "rebuild_seconds": sum(it.rebuild_seconds for it in report.iterations),
        "total_seconds": total,
        "best_cost": best,
        "enodes": egraph.total_enodes,
        "classes": len(egraph),
        "zero_firing_iterations": len(zero_firing_late),
        "zero_firing_applied": sum(it.applied_matches for it in zero_firing_late),
        "zero_firing_matches": sum(sum(it.matches.values()) for it in zero_firing_late),
        "final_iteration": {
            "matches": sum(report.iterations[-1].matches.values()),
            "firings": report.iterations[-1].total_firings,
            "applied": report.iterations[-1].applied_matches,
            "skipped": report.iterations[-1].skipped_applications,
            "enodes_created": report.iterations[-1].enodes_created,
        },
    }


@pytest.mark.figure
def test_apply_dedup_at_least_5x_faster_apply_phase(bench, bench_record):
    """Re-apply-everything vs the applied-match ledger on match-heavy runs.

    The acceptance gate for the apply-phase overhaul: on the affine-tower
    chain (the headline match-heavy workload) the apply phase must be >= 5x
    faster and the whole saturation >= 1.5x faster with the ledger on, with
    byte-identical best costs and final graphs, and the late zero-firing
    iterations must perform ~zero instantiations (the final quiescent
    iteration allocates nothing at all).  The gear under the same rule set
    is recorded alongside as a second datapoint.
    """
    limits = RunnerLimits(max_iterations=60, max_enodes=200_000, max_seconds=60.0)
    workloads = {
        "affine-tower-chain-50": _affine_tower_chain(50),
        "gear-small-step": gear_model(),
    }
    rules = _small_step_rules()

    recorded = {}
    for name, model in workloads.items():
        off, on = _interleaved(
            bench,
            lambda: _measure_dedup(model, rules, limits, dedup=False),
            lambda: _measure_dedup(model, rules, limits, dedup=True),
        )
        assert on["best_cost"] == off["best_cost"], name
        assert on["enodes"] == off["enodes"], name
        assert on["classes"] == off["classes"], name
        assert on["stop_reason"] == off["stop_reason"], name
        recorded[name] = {
            "model_nodes": model.size(),
            "off": off,
            "on": on,
            "apply_speedup": off["apply_seconds"] / max(on["apply_seconds"], 1e-9),
            "e2e_speedup": off["total_seconds"] / max(on["total_seconds"], 1e-9),
        }

    headline = recorded["affine-tower-chain-50"]
    bench_record(
        {
            "apply_dedup": {
                "workloads": recorded,
                "apply_speedup": headline["apply_speedup"],
                "e2e_speedup": headline["e2e_speedup"],
            }
        }
    )

    on = headline["on"]
    # Late zero-firing iterations: thousands of matches, ~zero instantiations.
    assert on["zero_firing_matches"] > 1000
    assert on["zero_firing_applied"] <= on["zero_firing_matches"] * 0.02
    assert on["final_iteration"]["applied"] == 0
    assert on["final_iteration"]["enodes_created"] == 0
    assert on["final_iteration"]["skipped"] == on["final_iteration"]["matches"]

    if bench:
        assert headline["apply_speedup"] >= REQUIRED_APPLY_DEDUP_SPEEDUP, (
            f"apply dedup only {headline['apply_speedup']:.2f}x faster in the apply phase "
            f"(off {headline['off']['apply_seconds']:.3f}s vs on {on['apply_seconds']:.3f}s)"
        )
        assert headline["e2e_speedup"] >= REQUIRED_APPLY_DEDUP_E2E_SPEEDUP, (
            f"apply dedup only {headline['e2e_speedup']:.2f}x faster end to end "
            f"(off {headline['off']['total_seconds']:.3f}s vs on {on['total_seconds']:.3f}s)"
        )
