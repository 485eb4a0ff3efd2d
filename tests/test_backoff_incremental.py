"""Backoff bans x incremental search: expiring rules must re-search everything.

The ROADMAP open item about expansive rule sets: a rule banned by the
backoff scheduler misses search epochs, so its incremental cache is blind to
every class dirtied while it sat out.  When the ban expires the matcher must
fall back to a full sweep for that rule — matching *all* classes, not just
the ones dirtied in the expiry iteration — or matches rooted in
mid-ban-created classes would be silently lost.  These tests pin that
protocol at the runner level and through ``SynthesisConfig.rule_match_limit``.
"""

from __future__ import annotations

import functools

import pytest

from repro.benchsuite.models import fig2_translated_cubes
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import BackoffConfig, Runner, RunnerLimits
from repro.lang.term import Term


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


def _run(incremental: bool):
    egraph = EGraph()
    egraph.add_term(_chain(8))
    egraph.add_term(Term("T", (Term("z"),)))
    runner = Runner(
        _rules(),
        RunnerLimits(max_iterations=6, max_enodes=10_000, max_seconds=20.0),
        backoff=BackoffConfig(match_limit=2, ban_length=2),
        incremental=incremental,
    )
    report = runner.run(egraph)
    return egraph, report


def test_expired_ban_triggers_full_sweep_covering_clean_classes():
    egraph, report = _run(incremental=True)
    by_index = {it.index: it for it in report.iterations}

    # Iteration 0: comm matches every U-class (> limit 2) and is banned for
    # 2 iterations (until iteration 3); its matches are dropped.
    assert "comm" in by_index[0].banned
    assert by_index[0].matches["comm"] > 2
    # During the ban comm neither searches nor appears in the match table,
    # while dup keeps dirtying the graph with new U-classes.
    for index in (1, 2):
        assert "comm" in by_index[index].banned
        assert "comm" not in by_index[index].matches
        assert by_index[index].dirty_classes > 0
    # At expiry the matcher may not trust comm's cache: full sweep.
    expiry = by_index[3]
    assert "comm" in expiry.full_sweep_rules
    # The sweep sees *every* U-class: the 8 from the original chain (clean
    # since iteration 0) plus the ones dup created during the ban.
    u_classes = len(egraph.classes_with_op("U"))
    assert expiry.matches["comm"] >= 8
    assert expiry.matches["comm"] > by_index[0].matches["comm"] - 1  # grew, not shrank
    # dup, never banned, stays on the incremental path at expiry.
    assert "dup" not in expiry.full_sweep_rules
    assert u_classes >= 8


def test_ban_schedule_and_matches_identical_to_naive_runner():
    """The incremental engine must take the exact same scheduler decisions."""
    naive_egraph, naive = _run(incremental=False)
    inc_egraph, incremental = _run(incremental=True)
    assert [it.index for it in naive.iterations] == [it.index for it in incremental.iterations]
    for naive_it, inc_it in zip(naive.iterations, incremental.iterations):
        assert naive_it.matches == inc_it.matches
        assert sorted(naive_it.banned) == sorted(inc_it.banned)
    assert naive.stop_reason == incremental.stop_reason
    assert len(naive_egraph) == len(inc_egraph)
    assert naive_egraph.total_enodes == inc_egraph.total_enodes


@pytest.mark.parametrize("match_limit", [3, 10_000])
def test_rule_match_limit_parity_through_the_pipeline(match_limit, monkeypatch):
    """SynthesisConfig.rule_match_limit + incremental search end to end.

    With a tiny limit the affine rules get banned and re-sworn in mid-run;
    the extracted candidates must not depend on the matcher implementation.
    The naive matcher runs by patching the pipeline's ``Runner``.
    """
    model = fig2_translated_cubes(4)
    config = SynthesisConfig(rule_match_limit=match_limit, rule_ban_length=1, rewrite_iterations=8)
    costs = {}
    for incremental in (False, True):
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.core.pipeline.Runner", functools.partial(Runner, incremental=incremental)
            )
            result = synthesize(model, config)
        costs[incremental] = [(c.cost, c.term) for c in result.candidates]
    assert costs[True] == costs[False]
