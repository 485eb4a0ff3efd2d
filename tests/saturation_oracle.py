"""The saturation engine's replaced designs, kept as test oracles.

``repro.egraph`` has one engine: the compiled-trie incremental matcher, the
apply phase with its applied-match ledgers, and single-best extraction over
the e-classes' built-in best-cost slots.  The designs each of those replaced
live here, unchanged in what they compute, so the differential tests and
``benchmarks/test_saturation_perf.py`` can run old and new side by side:

* the naive top-down backtracking e-matcher (:func:`match_in_class`,
  :func:`search`), :class:`NaiveMatcher` (that matcher behind the
  ``IncrementalMatcher.search`` interface, one sweep per rule over one
  operator index per call) and :func:`run_rule` (search one rule, then
  apply every match);
* :class:`ReferenceRunner`, the two-phase loop without the ledger.  It takes
  its matcher as an argument — :class:`NaiveMatcher` or the production
  ``IncrementalMatcher`` — and accepts ``synthesize``'s ``Runner`` call, so
  a test can patch ``repro.core.pipeline.Runner`` with it;
* :class:`PostHocExtractor`, single-best extraction over a cost table that a
  parent-driven worklist fixpoint computes after saturation
  (:func:`post_hoc_costs`, over :func:`parent_enodes`);
* :func:`rebuild_hashcons`, the whole-graph sweep that ended every
  ``EGraph.rebuild`` before rebuild re-canonicalized only the classes its
  repairs touched: run after a production rebuild, it must change nothing.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph, ENode, FlatNode
from repro.egraph.extract import CostFunction, ast_size_cost
from repro.egraph.pattern import CompiledRuleSet, Pattern, PatternVar, SearchStats, Substitution
from repro.egraph.rewrite import BaseRewrite, RewriteMatch
from repro.egraph.runner import IterationReport, Runner, StopReason
from repro.lang.term import Term

# ---------------------------------------------------------------------------
# The naive backtracking e-matcher
# ---------------------------------------------------------------------------


def match_in_class(
    egraph: EGraph, pattern: Pattern, class_id: int, substitution: Optional[Substitution] = None
) -> Iterator[Substitution]:
    """Yield all substitutions under which ``pattern`` matches e-class ``class_id``."""
    substitution = substitution or {}
    class_id = egraph.find(class_id)

    if isinstance(pattern.op, PatternVar):
        name = pattern.op.name
        bound = substitution.get(name)
        if bound is None:
            extended = dict(substitution)
            extended[name] = class_id
            yield extended
        elif egraph.find(bound) == class_id:
            yield dict(substitution)
        return

    for enode in list(egraph.nodes(class_id)):
        if enode.op != pattern.op or len(enode.args) != len(pattern.children):
            continue
        yield from _match_args(egraph, pattern.children, enode.args, substitution)


def _match_args(
    egraph: EGraph,
    patterns: Sequence[Pattern],
    arg_ids: Sequence[int],
    substitution: Substitution,
) -> Iterator[Substitution]:
    if not patterns:
        yield dict(substitution)
        return
    head_pattern, *rest_patterns = patterns
    head_id, *rest_ids = arg_ids
    for partial in match_in_class(egraph, head_pattern, head_id, substitution):
        yield from _match_args(egraph, rest_patterns, rest_ids, partial)


def op_index(egraph: EGraph) -> Dict[int, List[int]]:
    """Interned operator id -> ids of the classes holding it, in class order."""
    index: Dict[int, List[int]] = {}
    for eclass in egraph.classes():
        for op_id in {node[0] for node in eclass.flat}:
            index.setdefault(op_id, []).append(eclass.id)
    return index


def search(
    egraph: EGraph, pattern: Pattern, index: Optional[Dict[int, List[int]]] = None
) -> List[Tuple[int, Substitution]]:
    """Match ``pattern`` against every e-class: (e-class id, substitution) pairs.

    When the pattern root is a concrete operator, only e-classes holding an
    e-node with that operator are matched, read from ``index`` (an
    :func:`op_index` of the current graph, built here when omitted).
    """
    if isinstance(pattern.op, PatternVar):
        candidate_ids = [eclass.id for eclass in egraph.classes()]
    else:
        if index is None:
            index = op_index(egraph)
        candidate_ids = index.get(egraph.symbols.get(pattern.op), [])
    results: List[Tuple[int, Substitution]] = []
    for class_id in candidate_ids:
        for substitution in match_in_class(egraph, pattern, class_id):
            results.append((class_id, substitution))
    return results


def rule_matches(
    rule: BaseRewrite, egraph: EGraph, index: Optional[Dict[int, List[int]]] = None
) -> List[RewriteMatch]:
    """Every match of ``rule``'s left-hand side, found by the naive matcher."""
    return [RewriteMatch(class_id, sub) for class_id, sub in search(egraph, rule.lhs, index)]


def run_rule(rule: BaseRewrite, egraph: EGraph) -> int:
    """Search ``rule``, then apply every match; returns the firings that changed the graph."""
    return sum(rule.apply_match_checked(egraph, match)[0] for match in rule_matches(rule, egraph))


class NaiveMatcher:
    """One naive sweep per rule, behind ``IncrementalMatcher``'s ``search`` interface.

    Built from a :class:`CompiledRuleSet` (only its rules are read), so the
    class itself is a matcher factory for :class:`ReferenceRunner`, as
    ``IncrementalMatcher`` is.  Every call searches every rule from one
    :func:`op_index` of the current graph and caches nothing.
    """

    def __init__(self, compiled: CompiledRuleSet) -> None:
        self.rules = compiled.rules
        self.last_stats = SearchStats()

    def search(self, egraph: EGraph) -> Dict[str, List]:
        index = op_index(egraph)
        results = {rule.name: rule_matches(rule, egraph, index) for rule in self.rules}
        self.last_stats = SearchStats(
            recomputed_matches=sum(len(matches) for matches in results.values()),
        )
        return results


# ---------------------------------------------------------------------------
# The two-phase loop without the applied-match ledger
# ---------------------------------------------------------------------------


class ReferenceRunner(Runner):
    """:class:`Runner` with a chosen matcher and an apply phase without ledgers.

    ``matcher`` is called with the compiled rule set at the start of every
    run: :class:`NaiveMatcher` (the default) or ``IncrementalMatcher``.  The
    apply phase runs every match, with the same per-application node and
    time checks; the backoff scheduler, saturation and the ban fast-forward
    are the production loop's own.
    """

    def __init__(self, rules, limits=None, *, matcher=NaiveMatcher, **options):
        super().__init__(rules, limits, **options)
        self.matcher_factory = matcher

    def _search_phase(self, egraph: EGraph, iteration: int, report: IterationReport):
        if iteration == 0:
            # Every run starts at iteration 0 with a fresh production
            # matcher; the reference one replaces it for the whole run.
            self.matcher = self.matcher_factory(self.compiled)
        return super()._search_phase(egraph, iteration, report)

    def _apply_phase(self, egraph: EGraph, searched, start: float,
                     report: IterationReport) -> Optional[StopReason]:
        max_enodes = self.limits.max_enodes
        max_seconds = self.limits.max_seconds
        for rule, matches in searched:
            stop = None
            fired = applied = 0
            for match in matches:
                if egraph.total_enodes > max_enodes:
                    stop = StopReason.NODE_LIMIT
                    break
                if time.perf_counter() - start > max_seconds:
                    stop = StopReason.TIME_LIMIT
                    break
                changed, executed = rule.apply_match_checked(egraph, match)
                fired += changed
                applied += executed
            if fired:
                report.firings[rule.name] = report.firings.get(rule.name, 0) + fired
            report.applied_matches += applied
            if stop is not None:
                return stop
        return None


# ---------------------------------------------------------------------------
# Post-hoc single-best extraction
# ---------------------------------------------------------------------------


def parent_enodes(egraph: EGraph, class_id: int) -> List[Tuple[ENode, int]]:
    """Canonicalized, de-duplicated parents of an e-class.

    Returns ``(enode, owner_id)`` pairs: every e-node (with canonical
    argument ids) that has ``class_id`` among its children, together with
    the canonical id of the class that contains it, read from the class's
    parents log.
    """
    find = egraph.find
    seen: Dict[Tuple[Tuple[int, ...], int], None] = {}
    for parent_node, parent_id in egraph.eclass(class_id).parents:
        seen[(egraph.canonical_flat(parent_node), find(parent_id))] = None
    decode_op = egraph.symbols.op
    return [(ENode(decode_op(node[0]), node[1:]), owner) for node, owner in seen]


def post_hoc_costs(egraph: EGraph, cost_function: CostFunction) -> Dict[int, Tuple[float, ENode]]:
    """``(best cost, witness)`` per canonical class, by a worklist fixpoint.

    Seeded at leaves, the worklist propagates improvements to parents until
    no class changes.  On a discount cycle the improvements form a geometric
    series that reaches its float fixpoint after finitely many strict
    updates, so the loop terminates without any well-foundedness guard.
    """
    best: Dict[int, Tuple[float, ENode]] = {}
    find = egraph.find
    worklist: deque = deque()
    queued: Set[int] = set()

    def update(class_id: int, cost: float, enode: ENode) -> None:
        current = best.get(class_id)
        if current is None or cost < current[0]:
            best[class_id] = (cost, enode)
            if class_id not in queued:
                queued.add(class_id)
                worklist.append(class_id)

    def enode_cost(enode: ENode) -> Optional[float]:
        child_costs = []
        for arg in enode.args:
            entry = best.get(find(arg))
            if entry is None:
                return None
            child_costs.append(entry[0])
        return cost_function(enode.op, child_costs)

    decode_op = egraph.symbols.op
    for eclass in egraph.classes():
        class_id = find(eclass.id)
        for node in eclass.flat:
            if len(node) == 1:
                op = decode_op(node[0])
                update(class_id, cost_function(op, ()), ENode(op))

    while worklist:
        class_id = worklist.popleft()
        queued.discard(class_id)
        for parent_node, parent_id in parent_enodes(egraph, class_id):
            cost = enode_cost(parent_node)
            if cost is not None:
                update(parent_id, cost, parent_node)
    return best


class PostHocExtractor:
    """Single-best extraction over a :func:`post_hoc_costs` table under AST size.

    The table is computed at construction, from the e-graph alone; the
    classes' built-in best-cost slots are never read.  Queries walk the
    table's witnesses, as the production extractor walks the slots'.
    """

    def __init__(self, egraph: EGraph):
        self.egraph = egraph
        self._best = post_hoc_costs(egraph, ast_size_cost)

    def cost_of(self, class_id: int) -> float:
        return self._best[self.egraph.find(class_id)][0]

    def extract(self, class_id: int) -> Term:
        """The witness derivation, built bottom-up from an explicit stack."""
        find = self.egraph.find
        terms: Dict[int, Term] = {}
        stack = [find(class_id)]
        while stack:
            current = stack[-1]
            witness = self._best[current][1]
            missing = [find(arg) for arg in witness.args if find(arg) not in terms]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if current not in terms:
                terms[current] = Term(witness.op, tuple(terms[find(a)] for a in witness.args))
        return terms[find(class_id)]


# ---------------------------------------------------------------------------
# The whole-graph hashcons sweep
# ---------------------------------------------------------------------------


def rebuild_hashcons(egraph: EGraph) -> None:
    """Fully re-canonicalize e-nodes, the hashcons, and class node lists."""
    find = egraph._union_find.find
    canonical_flat = egraph.canonical_flat
    new_hashcons: Dict[FlatNode, int] = {}
    for class_id in list(egraph._classes.keys()):
        canonical_id = find(class_id)
        if canonical_id != class_id:
            continue
        eclass = egraph._classes[class_id]
        unique_nodes: Dict[FlatNode, None] = {}
        for node in eclass.flat:
            canonical_node = canonical_flat(node)
            unique_nodes[canonical_node] = None
            existing = new_hashcons.get(canonical_node)
            if existing is not None and find(existing) != canonical_id:
                # Congruent nodes in distinct classes: merge and note that
                # another pass is required.
                egraph._pending.append(egraph.merge(existing, canonical_id))
            new_hashcons[canonical_node] = find(canonical_id)
        egraph._enode_count -= len(eclass.flat) - len(unique_nodes)
        eclass.replace_flat(list(unique_nodes.keys()))
    egraph._hashcons = new_hashcons
    if egraph._pending:
        # A congruence found during hashcons rebuilding requires another
        # repair round; recursion depth is bounded by the lattice of
        # merges.
        egraph.rebuild()
        rebuild_hashcons(egraph)
