"""Backoff bans x incremental search: a rule back from a ban sees every match.

The incremental matcher matches every rule every epoch, banned or not; the
runner drops a banned rule's matches.  So when a ban expires, the rule's
match list must already cover *all* classes — the ones clean since before
the ban as well as the ones created while it sat out — or matches would be
silently lost.  These tests pin that at the runner level, against the naive
reference runner, and through the synthesis pipeline.
"""

from __future__ import annotations

import functools

import pytest

from repro.benchsuite.models import fig2_translated_cubes
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.egraph.egraph import EGraph
from repro.egraph.pattern import IncrementalMatcher
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import BackoffConfig, Runner, RunnerLimits
from repro.lang.term import Term
from saturation_oracle import ReferenceRunner, rule_matches


def _chain(n: int) -> Term:
    term = Term("x")
    for _ in range(n):
        term = Term("U", (term, Term("y")))
    return term


def _rules():
    return [
        # Explosive: one match per U-class, immediately over the tiny limit.
        rewrite("comm", "(U ?a ?b)", "(U ?b ?a)"),
        # Steady growth: keeps creating fresh U-classes while comm is banned.
        rewrite("dup", "(T ?x)", "(T (U ?x ?x))"),
    ]


def _run(engine=Runner):
    egraph = EGraph()
    egraph.add_term(_chain(8))
    egraph.add_term(Term("T", (Term("z"),)))
    runner = engine(
        _rules(),
        RunnerLimits(max_iterations=6, max_enodes=10_000, max_seconds=20.0),
        backoff=BackoffConfig(match_limit=2, ban_length=2),
    )
    report = runner.run(egraph)
    return egraph, report


class _RecordingMatcher(IncrementalMatcher):
    """Keeps each epoch's match lists next to the naive oracle's on the same graph."""

    def __init__(self, compiled):
        super().__init__(compiled)
        self.epochs = []

    def search(self, egraph):
        results = super().search(egraph)
        self.epochs.append(
            (
                {name: _canonical(egraph, matches) for name, matches in results.items()},
                {rule.name: _canonical(egraph, rule_matches(rule, egraph))
                 for rule in self.compiled.rules},
            )
        )
        return results


def _canonical(egraph, matches):
    """Matches projected onto canonical ids, sorted (a multiset)."""
    find = egraph.find
    return sorted(
        (find(m.class_id), sorted((name, find(cid)) for name, cid in m.substitution.items()))
        for m in matches
    )


def test_rule_back_from_a_ban_matches_every_class(monkeypatch):
    monkeypatch.setattr("repro.egraph.runner.IncrementalMatcher", _RecordingMatcher)
    egraph = EGraph()
    chain = egraph.add_term(_chain(8))
    egraph.add_term(Term("T", (Term("z"),)))
    # The 8 U-classes of the original chain, outermost first.
    chain_classes = []
    class_id = chain
    for _ in range(8):
        chain_classes.append(class_id)
        (node,) = [n for n in egraph.nodes(class_id) if n.op == "U"]
        class_id = node.args[0]
    runner = Runner(
        _rules(),
        RunnerLimits(max_iterations=6, max_enodes=10_000, max_seconds=20.0),
        backoff=BackoffConfig(match_limit=2, ban_length=2),
    )
    report = runner.run(egraph)
    epochs = dict(zip((it.index for it in report.iterations), runner.matcher.epochs))
    by_index = {it.index: it for it in report.iterations}

    # Iteration 0: comm matches every U-class (> limit 2) and is banned for
    # 2 iterations (until iteration 3); its matches are dropped.
    assert "comm" in by_index[0].banned
    assert by_index[0].matches["comm"] > 2
    # During the ban comm has no entry in the match table, while dup keeps
    # dirtying the graph with new U-classes.
    for index in (1, 2):
        assert "comm" in by_index[index].banned
        assert "comm" not in by_index[index].matches
        assert by_index[index].dirty_classes > 0
    # At expiry comm's match list is the oracle's on the current graph: the
    # 8 chain classes, clean since iteration 0, plus the U-classes dup
    # created during the ban.
    expiry = by_index[3]
    production, naive = epochs[3]
    assert production["comm"] == naive["comm"]
    assert expiry.matches["comm"] == len(naive["comm"])
    roots = {class_id for class_id, _substitution in production["comm"]}
    chain_roots = {egraph.find(class_id) for class_id in chain_classes}
    assert len(chain_roots) == 8 and chain_roots < roots
    # Every epoch, banned or not, every rule's list is the oracle's.
    for index, (production, naive) in epochs.items():
        assert production == naive, index


def test_ban_schedule_and_matches_identical_to_naive_runner():
    """The incremental engine must take the naive reference's scheduler decisions."""
    naive_egraph, naive = _run(ReferenceRunner)
    inc_egraph, incremental = _run()
    assert [it.index for it in naive.iterations] == [it.index for it in incremental.iterations]
    for naive_it, inc_it in zip(naive.iterations, incremental.iterations):
        assert naive_it.matches == inc_it.matches
        assert sorted(naive_it.banned) == sorted(inc_it.banned)
    assert naive.stop_reason == incremental.stop_reason
    assert len(naive_egraph) == len(inc_egraph)
    assert naive_egraph.total_enodes == inc_egraph.total_enodes


@pytest.mark.parametrize("match_limit", [3, 10_000])
def test_rule_match_limit_parity_through_the_pipeline(match_limit, monkeypatch):
    """A backoff match limit + incremental search end to end.

    With a tiny limit the affine rules get banned and re-sworn in mid-run;
    the extracted candidates must not depend on the matcher implementation.
    The backoff settings and the naive reference runner reach the pipeline
    by patching its ``Runner``.
    """
    model = fig2_translated_cubes(4)
    config = SynthesisConfig(rewrite_iterations=8)
    backoff = BackoffConfig(match_limit=match_limit, ban_length=1)
    costs = {}
    for incremental, engine in ((False, ReferenceRunner), (True, Runner)):
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.core.pipeline.Runner", functools.partial(engine, backoff=backoff)
            )
            result = synthesize(model, config)
        costs[incremental] = [(c.cost, c.term) for c in result.candidates]
    assert costs[True] == costs[False]
