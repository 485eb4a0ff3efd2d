"""Differential tests: apply-phase dedup ledger on vs off.

The ledger-free :class:`ReferenceRunner` of ``tests/saturation_oracle.py``
is the oracle, run with the production incremental matcher or the naive
one.  Over randomized term populations and rule schedules these tests
assert that the production runner's applied-match ledger changes *nothing
observable about the result*: per-iteration match counts,
stop reasons, iteration counts, final best costs, and final graph sizes are
identical, while the dedup run actually skips re-applications
(``skipped_applications``) instead of merging classes with themselves.

The ledger's merge-invalidation story — a fingerprint is dead as soon as a
union re-canonicalizes one of its participating ids — is driven directly by
hypothesis schedules over :meth:`RewriteMatch.fingerprint`.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.benchsuite.models import gear_model, linear_array
from repro.core.rules import default_rules
from repro.csg.build import cube, scale
from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor
from repro.egraph.pattern import IncrementalMatcher
from repro.egraph.rewrite import RewriteMatch, dynamic_rewrite, rewrite
from repro.egraph.runner import BackoffConfig, Runner, RunnerLimits
from repro.lang.term import Term
from saturation_oracle import NaiveMatcher, ReferenceRunner

# ---------------------------------------------------------------------------
# Randomized rule-schedule differential (the ledger-free runner is the oracle)
# ---------------------------------------------------------------------------


def _rule_db():
    """Syntactic + dynamic (pure and impure) rules in one set."""

    def count_t(egraph: EGraph, class_id: int, sub):
        # Impure applier: reads class *structure*, so it must never be
        # skipped — the differential below would catch it if it were.
        hits = sum(1 for node in egraph.nodes(sub["a"]) if node.op == "T")
        if hits == 0:
            return None
        return egraph.add_term(Term("T", (Term("x"),)))

    def wrap_pair(egraph: EGraph, class_id: int, sub):
        # Pure applier: output depends only on the bound ids.
        from repro.egraph.egraph import ENode

        return egraph.add_enode(ENode("P", (egraph.find(sub["a"]), egraph.find(sub["b"]))))

    return [
        rewrite("comm", "(U ?a ?b)", "(U ?b ?a)"),
        rewrite("assoc", "(U (U ?a ?b) ?c)", "(U ?a (U ?b ?c))"),
        rewrite("assoc-rev", "(U ?a (U ?b ?c))", "(U (U ?a ?b) ?c)"),
        rewrite("idem", "(U ?a ?a)", "?a"),
        rewrite("wrap", "(T ?a)", "(U ?a ?a)"),
        dynamic_rewrite("dyn-impure", "(I ?a x)", count_t),
        dynamic_rewrite("dyn-pure", "(I ?a ?b)", wrap_pair, pure=True),
    ]


def _random_term(rng: random.Random, depth: int = 4) -> Term:
    if depth == 0 or rng.random() < 0.3:
        return Term(rng.choice(["x", "y", "z", 1, 2]))
    op = rng.choice(["U", "U", "I", "T"])
    arity = 1 if op == "T" else 2
    return Term(op, tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def _run(seed: int, engine=Runner, **options):
    """One seeded run of ``engine`` (production unless told otherwise)."""
    rng = random.Random(seed)
    egraph = EGraph()
    roots = [egraph.add_term(_random_term(rng)) for _ in range(rng.randint(3, 8))]
    runner = engine(
        _rule_db(),
        RunnerLimits(max_iterations=rng.randint(3, 8), max_enodes=50_000, max_seconds=20.0),
        backoff=BackoffConfig(),
        **options,
    )
    report = runner.run(egraph)
    extractor = Extractor(egraph)
    costs = tuple(extractor.cost_of(root) for root in roots)
    return egraph, report, costs


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("incremental", [True, False])
def test_dedup_changes_nothing_observable(seed, incremental):
    """Match counts, stop reason, graph sizes, and best costs are identical."""
    matcher = IncrementalMatcher if incremental else NaiveMatcher
    eg_off, rep_off, costs_off = _run(seed, ReferenceRunner, matcher=matcher)
    eg_on, rep_on, costs_on = _run(seed)

    assert rep_on.stop_reason == rep_off.stop_reason
    assert [it.index for it in rep_on.iterations] == [it.index for it in rep_off.iterations]
    for it_on, it_off in zip(rep_on.iterations, rep_off.iterations):
        # The search phase is untouched by dedup: identical match sets.
        assert it_on.matches == it_off.matches
        assert it_on.banned == it_off.banned
        # Skipping removes work and never adds any: every application the
        # oracle ran, the ledger either ran or skipped.  (Firing counts are
        # no invariant: before the rebuild, whether one application
        # changes the graph depends on which others ran before it.)
        assert (
            it_on.applied_matches + it_on.skipped_applications
            == it_off.applied_matches
        )
        assert it_on.enodes_after == it_off.enodes_after
        assert it_on.classes_after == it_off.classes_after
    assert len(eg_on) == len(eg_off)
    assert eg_on.total_enodes == eg_off.total_enodes
    assert costs_on == costs_off
    # No dedup run may ever skip anything for the off engine.
    assert all(it.skipped_applications == 0 for it in rep_off.iterations)


def test_multi_iteration_run_actually_skips():
    """On a saturating workload the ledger eliminates re-applications."""
    _, report, _ = _run(seed=3)
    if len(report.iterations) > 1:
        assert sum(it.skipped_applications for it in report.iterations) > 0


def test_quiescent_final_iteration_applies_nothing_syntactic():
    """A saturated final iteration re-applies nothing for syntactic rules."""
    rules = [
        rewrite("comm", "(U ?a ?b)", "(U ?b ?a)"),
        rewrite("assoc", "(U (U ?a ?b) ?c)", "(U ?a (U ?b ?c))"),
    ]
    egraph = EGraph()
    term = Term("U", (Term("U", (Term("x"), Term("y"))), Term("z")))
    egraph.add_term(term)
    runner = Runner(rules, RunnerLimits(max_iterations=30, max_enodes=10_000))
    report = runner.run(egraph)
    assert report.stop_reason.value == "saturated"
    final = report.iterations[-1]
    total = sum(final.matches.values())
    assert total > 0
    assert final.total_firings == 0
    # The quiescent iteration instantiates nothing: no allocations, and
    # re-execution is confined to matches whose fingerprints the previous
    # (still merging) epoch invalidated.
    assert final.enodes_created == 0
    assert final.skipped_applications + final.applied_matches == total
    assert final.skipped_applications > final.applied_matches


def test_pipeline_parity_on_real_models():
    """Full saturation parity on bundled models with the real rule database."""
    for model in (gear_model(), linear_array(20, (3.0, 0.0, 0.0), scale(2.0, 2.0, 2.0, cube()))):
        results = {}
        for dedup, engine in ((False, ReferenceRunner), (True, Runner)):
            options = {} if dedup else {"matcher": IncrementalMatcher}
            egraph = EGraph()
            root = egraph.add_term(model)
            report = engine(
                default_rules(),
                RunnerLimits(max_iterations=10, max_enodes=200_000, max_seconds=30.0),
                **options,
            ).run(egraph)
            results[dedup] = (
                report.stop_reason,
                [it.matches for it in report.iterations],
                egraph.total_enodes,
                len(egraph),
                Extractor(egraph).cost_of(root),
            )
        assert results[True] == results[False]


# ---------------------------------------------------------------------------
# Content-keyed dedup for impure rules (the chain-fold case)
# ---------------------------------------------------------------------------


def test_content_keyed_rule_skips_when_content_is_unchanged():
    """An impure rule with a content_key quiesces once its reads stabilize."""
    calls = []

    def applier(egraph: EGraph, class_id: int, sub):
        calls.append(egraph.union_version)
        if len(calls) == 1:
            # Grow the graph *away* from the matched class so the run gets a
            # second epoch while the rule's content key stays unchanged.
            egraph.add_term(Term("side"))
        return None

    def content(egraph: EGraph, class_id: int, sub):
        return tuple(sorted(str(n.op) for n in egraph.nodes(sub["a"])))

    rule = dynamic_rewrite("peek", "(H ?a)", applier, content_key=content)
    assert rule.deduplicable and not rule.pure
    egraph = EGraph()
    egraph.add_term(Term("H", (Term("x"),)))
    report = Runner([rule], RunnerLimits(max_iterations=6, max_enodes=10_000)).run(egraph)
    # First epoch examines the chain; every later epoch skips it because
    # nothing unioned into the matched class.
    assert len(calls) == 1
    assert sum(it.skipped_applications for it in report.iterations) >= 1


def test_content_change_refires_a_content_keyed_rule():
    """A class whose contents change is re-examined exactly until they stop."""
    calls = []

    def applier(egraph: EGraph, class_id: int, sub):
        calls.append(len(calls))
        if len(calls) < 3:
            # Mutate the matched class: its content key changes, so the
            # ledger must let the next epoch re-fire despite the identical
            # match fingerprint.
            egraph.merge(sub["a"], egraph.add_term(Term(f"leaf{len(calls)}")))
        return None

    def content(egraph: EGraph, class_id: int, sub):
        return tuple(sorted(str(n.op) for n in egraph.nodes(sub["a"])))

    rule = dynamic_rewrite("grow", "(H ?a)", applier, content_key=content)
    egraph = EGraph()
    egraph.add_term(Term("H", (Term("x"),)))
    report = Runner([rule], RunnerLimits(max_iterations=10, max_enodes=10_000)).run(egraph)
    # Fired once per distinct content (x | x+leaf1 | x+leaf1+leaf2), then
    # quiesced — a plain fingerprint ledger would have stopped after one
    # firing and missed the mutations; no ledger at all would never skip.
    assert len(calls) == 3
    assert report.stop_reason.value == "saturated"


def test_chain_fold_skips_rescans_on_unchanged_chains():
    """The real fold-chain rule stops rescanning a chain that stopped growing."""
    model = linear_array(12, (3.0, 0.0, 0.0), cube())
    results = {}
    for dedup, engine in ((False, ReferenceRunner), (True, Runner)):
        options = {} if dedup else {"matcher": IncrementalMatcher}
        egraph = EGraph()
        root = egraph.add_term(model)
        report = engine(
            [rule for rule in default_rules() if rule.name.startswith("fold-chain")],
            RunnerLimits(max_iterations=6, max_enodes=100_000),
            **options,
        ).run(egraph)
        results[dedup] = (
            [it.matches for it in report.iterations],
            egraph.total_enodes,
            Extractor(egraph).cost_of(root),
        )
        if dedup:
            skipped = sum(it.skipped_applications for it in report.iterations)
            assert skipped > 0, "unchanged chains must be skipped, not re-walked"
    assert results[True] == results[False]


# ---------------------------------------------------------------------------
# Fingerprints and merge invalidation (hypothesis schedules)
# ---------------------------------------------------------------------------

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _populated_egraph():
    egraph = EGraph()
    ids = [egraph.add_term(Term(leaf)) for leaf in ("x", "y", "z", "w")]
    for a in range(2):
        ids.append(egraph.add_term(Term("U", (Term("x"), Term(("y", "z")[a])))))
    egraph.rebuild()
    return egraph, ids


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=8))
def test_fingerprint_tracks_canonicalization_through_merges(merges):
    """fingerprint() always equals the from-scratch canonical projection."""
    egraph, ids = _populated_egraph()
    match = RewriteMatch(ids[4], {"a": ids[0], "b": ids[5]})
    for a, b in merges:
        fp = match.fingerprint(egraph)
        find = egraph.find
        assert fp == (
            find(match.class_id),
            tuple((name, find(cid)) for name, cid in match.substitution.items()),
        )
        egraph.merge(ids[a], ids[b])
        egraph.rebuild()
    # After every merge schedule the cached value still canonicalizes right.
    find = egraph.find
    assert match.fingerprint(egraph) == (
        find(match.class_id),
        tuple((name, find(cid)) for name, cid in match.substitution.items()),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(["merge", "check", "rebuild"]), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
def test_merge_schedules_never_let_a_stale_fingerprint_hit(ops, rng):
    """A cached fingerprint revalidates to the true canonical projection
    at every point of an interleaved merge/rebuild schedule."""
    egraph, ids = _populated_egraph()
    matches = [
        RewriteMatch(ids[4], {"a": ids[i], "b": ids[(i + 1) % 6]}) for i in range(6)
    ]
    for op in ops:
        if op == "merge":
            a, b = rng.sample(range(6), 2)
            egraph.merge(ids[a], ids[b])
        elif op == "rebuild":
            egraph.rebuild()
        else:
            find = egraph.find
            for match in matches:
                assert match.fingerprint(egraph) == (
                    find(match.class_id),
                    tuple((n, find(c)) for n, c in match.substitution.items()),
                )
