"""Differential tests: incremental trie search vs the naive e-matching sweep.

The naive backtracking matcher (``search`` in ``tests/saturation_oracle.py``)
is the oracle.  On randomized term populations and rule schedules these
tests assert, **every iteration**, that the incremental
compiled-trie search (:class:`IncrementalMatcher` over a
:class:`CompiledRuleSet`) yields exactly the same canonicalized
``(rule, class, substitution)`` match sets — across graph growth,
merges, congruence collapses during rebuild, random ban schedules (a
banned rule is still matched, but its matches are never applied), and
full saturation runs of the :class:`Runner` against the oracle's naive,
ledger-free reference runner.

Together the parametrized cases run well over 200 randomized compare
iterations (see ``test_total_randomized_iterations_budget``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor
from repro.egraph.pattern import CompiledRuleSet, IncrementalMatcher
from repro.egraph.rewrite import BaseRewrite, dynamic_rewrite, rewrite
from repro.egraph.runner import BackoffConfig, Runner, RunnerLimits
from repro.lang.term import Term
from saturation_oracle import NaiveMatcher, ReferenceRunner, rule_matches

# (seeds, iterations-per-seed) for the direct matcher differential and the
# ban-schedule differential; the budget test below keeps the total >= 200.
MATCHER_CASES = [(seed, 30) for seed in range(5)]
BAN_CASES = [(seed, 25) for seed in range(100, 104)]
RUNNER_SEEDS = list(range(200, 205))


def _rule_db() -> List[BaseRewrite]:
    """A deliberately nasty little rule set.

    Covers: commutativity/associativity (both directions, as two rules),
    repeated variables, leaf patterns, patterns rooted at a unary operator, a rule collapsing to a
    bare variable, and a dynamic rewrite.  Several rules share the ``(U ...)``
    top symbol so the discrimination trie actually shares prefixes.
    """

    def swap_args(egraph: EGraph, _class_id: int, sub: Dict[str, int]):
        return egraph.add_term(Term("T", (Term("x"),))) if "a" in sub else None

    return [
        rewrite("comm", "(U ?a ?b)", "(U ?b ?a)"),
        rewrite("assoc", "(U (U ?a ?b) ?c)", "(U ?a (U ?b ?c))"),
        rewrite("assoc-rev", "(U ?a (U ?b ?c))", "(U (U ?a ?b) ?c)"),
        rewrite("idem", "(U ?a ?a)", "?a"),
        rewrite("unwrap-leaf", "(T x)", "x"),
        rewrite("wrap", "(T ?a)", "(U ?a ?a)"),
        rewrite("deep", "(U (T ?a) (T ?b))", "(T (U ?a ?b))"),
        rewrite("deep-rev", "(T (U ?a ?b))", "(U (T ?a) (T ?b))"),
        dynamic_rewrite("dyn", "(I ?a x)", swap_args),
    ]


def _random_term(rng: random.Random, depth: int = 4) -> Term:
    if depth == 0 or rng.random() < 0.3:
        return Term(rng.choice(["x", "y", "z", 1, 2]))
    op = rng.choice(["U", "U", "I", "T"])
    arity = 1 if op == "T" else 2
    return Term(op, tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def _canonical(egraph: EGraph, matches) -> Set[Tuple]:
    """Project matches onto canonical ids so both matchers are comparable."""
    return {
        (
            egraph.find(m.class_id),
            frozenset((name, egraph.find(cid)) for name, cid in m.substitution.items()),
        )
        for m in matches
    }


def _mutate(rng: random.Random, egraph: EGraph, ids: List[int], results, rules) -> None:
    """Randomly grow, merge, and rewrite the graph, then rebuild."""
    for _ in range(rng.randrange(1, 4)):
        ids.append(egraph.add_term(_random_term(rng)))
    if len(ids) >= 2 and rng.random() < 0.7:
        egraph.merge(rng.choice(ids), rng.choice(ids))
    if results is not None:
        for rule in rules:
            for match in results.get(rule.name, [])[: rng.randrange(0, 6)]:
                rule.apply_match_checked(egraph, match)
    egraph.rebuild()


@pytest.mark.parametrize("seed,iterations", MATCHER_CASES)
def test_incremental_matches_naive_every_iteration(seed, iterations):
    """Core differential: full match-set equality on a mutating graph."""
    rng = random.Random(seed)
    rules = _rule_db()
    matcher = IncrementalMatcher(CompiledRuleSet(rules))
    egraph = EGraph()
    ids = [egraph.add_term(_random_term(rng)) for _ in range(20)]
    egraph.rebuild()
    results = None
    for iteration in range(iterations):
        results = matcher.search(egraph)
        for rule in rules:
            naive = _canonical(egraph, rule_matches(rule, egraph))
            incremental = _canonical(egraph, results[rule.name])
            assert incremental == naive, (
                f"seed {seed} iteration {iteration} rule {rule.name}: "
                f"only-incremental {incremental - naive}, only-naive {naive - incremental}"
            )
        _mutate(rng, egraph, ids, results, rules)
        egraph.check_invariants()


@pytest.mark.parametrize("seed,iterations", BAN_CASES)
def test_incremental_matches_naive_under_rule_schedules(seed, iterations):
    """Random ban schedules each epoch (the backoff scheduler's shape).

    The matcher searches every rule every epoch and a banned rule's matches
    are dropped, never applied.  Every rule's matches — a banned rule's, and
    a rule's just back from a ban — must equal the oracle's on the
    *current* graph.
    """
    rng = random.Random(seed)
    rules = _rule_db()
    matcher = IncrementalMatcher(CompiledRuleSet(rules))
    egraph = EGraph()
    ids = [egraph.add_term(_random_term(rng)) for _ in range(15)]
    egraph.rebuild()
    for iteration in range(iterations):
        banned = {rule.name for rule in rules if rng.random() < 0.4}
        results = matcher.search(egraph)
        assert set(results) == {rule.name for rule in rules}
        for rule in rules:
            naive = _canonical(egraph, rule_matches(rule, egraph))
            incremental = _canonical(egraph, results[rule.name])
            assert incremental == naive, (
                f"seed {seed} iteration {iteration} rule {rule.name} "
                f"(banned: {rule.name in banned})"
            )
        kept = {name: matches for name, matches in results.items() if name not in banned}
        _mutate(rng, egraph, ids, kept, rules)


@pytest.mark.parametrize("seed", RUNNER_SEEDS)
def test_runner_reports_identical_with_and_without_incremental(seed):
    """The production runner behaves like the naive, ledger-free reference.

    Same per-iteration match counts (so the backoff scheduler takes the same
    decisions), same ban schedule, same stop reason, same final graph size,
    and the same best extracted term cost.
    """
    rng = random.Random(seed)
    rules = _rule_db()
    model = Term("U", (_random_term(rng, 5), _random_term(rng, 5)))
    limits = RunnerLimits(max_iterations=8, max_enodes=4_000, max_seconds=20.0)
    backoff = BackoffConfig(match_limit=40, ban_length=2)

    outcomes = {}
    for incremental, engine in ((False, ReferenceRunner), (True, Runner)):
        egraph = EGraph()
        root = egraph.add_term(model)
        report = engine(rules, limits, backoff=backoff).run(egraph)
        best = Extractor(egraph).extract(root)
        outcomes[incremental] = {
            "stop": report.stop_reason,
            "indices": [it.index for it in report.iterations],
            "matches": [it.matches for it in report.iterations],
            "banned": [sorted(it.banned) for it in report.iterations],
            "classes": len(egraph),
            "enodes": egraph.total_enodes,
            "best_cost": best.size(),
        }
    assert outcomes[True] == outcomes[False], f"seed {seed}: {outcomes}"


def test_total_randomized_iterations_budget():
    """The acceptance criterion asks for >= 200 randomized differential
    iterations; keep the parametrization honest if someone trims it."""
    total = sum(n for _, n in MATCHER_CASES) + sum(n for _, n in BAN_CASES)
    total += len(RUNNER_SEEDS) * 8  # runner iterations are compared too
    assert total >= 200, total


def test_trie_shares_prefixes():
    """Structural sanity of the compiled rule set used above."""
    compiled = CompiledRuleSet(_rule_db())
    stats = compiled.stats
    # One lhs program per rule.
    assert stats.programs == 9
    assert stats.shared_instructions > 0, "trie degenerated into disjoint chains"
    assert stats.max_depth == 3
    assert stats.trie_nodes < stats.instructions + 1


def test_rule_names_must_be_unique():
    with pytest.raises(ValueError):
        CompiledRuleSet([rewrite("dup", "(U ?a ?b)", "(U ?b ?a)"),
                         rewrite("dup", "(T ?a)", "?a")])


def test_runner_is_incremental_and_the_reference_is_naive():
    rules = _rule_db()
    runners = {"production": Runner(rules), "reference": ReferenceRunner(rules)}
    reports = {}
    for name, runner in runners.items():
        egraph = EGraph()
        egraph.add_term(Term("U", (Term("U", (Term("x"), Term("y"))), Term("z"))))
        reports[name] = runner.run(egraph).iterations
    assert isinstance(runners["production"].matcher, IncrementalMatcher)
    assert isinstance(runners["reference"].matcher, NaiveMatcher)
    # The naive path really ran: every match of every iteration was
    # recomputed, while production re-matched only the dirty closure and
    # served the rest of later epochs from its cache.
    assert all(it.cached_matches == 0 for it in reports["reference"])
    assert len(reports["production"]) > 1
    assert reports["production"][0].cached_matches == 0
    assert any(it.cached_matches > 0 for it in reports["production"][1:])
