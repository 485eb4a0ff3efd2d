"""Property-based e-graph invariant tests.

:meth:`EGraph.check_invariants` is a debug-only O(graph) sweep asserting the
hashcons is canonical, the union-find is path-compressed and agrees with the
class table, congruence is closed (after rebuild), and the dirty set is
sound.  The hypothesis test below drives randomized add/merge/rebuild
schedules and calls it after every operation; after every rebuild it also
runs the whole-graph sweep of ``tests/saturation_oracle.py``, which must
find nothing left to repair.  The deterministic tests pin the dirty-set
epoch protocol and prove the checker actually detects corruption (a
checker that never fires guards nothing).
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # no dependency manifest; keep the gate runnable
from hypothesis import example, given, settings, strategies as st

from repro.egraph.egraph import EGraph, ENode
from repro.lang.term import Term
from saturation_oracle import rebuild_hashcons

# -- term / operation strategies ------------------------------------------------

_leaf = st.sampled_from(["x", "y", "z", 0, 1])
_term = st.recursive(
    _leaf.map(Term),
    lambda children: st.tuples(st.sampled_from(["U", "I", "T"]), st.lists(children, min_size=1, max_size=2)).map(
        lambda pair: Term(pair[0], tuple(pair[1]))
    ),
    max_leaves=8,
)

_operation = st.one_of(
    st.tuples(st.just("add"), _term),
    st.tuples(st.just("merge"), st.tuples(st.integers(0, 50), st.integers(0, 50))),
    st.tuples(st.just("rebuild"), st.none()),
    st.tuples(st.just("take-dirty"), st.none()),
)


def _graph_state(egraph: EGraph):
    find = egraph.find
    return (
        egraph.union_version,
        egraph.total_enodes,
        {class_id: list(eclass.flat) for class_id, eclass in egraph._classes.items()},
        {node: find(owner) for node, owner in egraph._hashcons.items()},
    )


def _rebuild(egraph: EGraph) -> None:
    """Rebuild, then check the reference sweep finds nothing to change:
    no merge, no node list, no hashcons entry, no e-node count."""
    egraph.rebuild()
    before = _graph_state(egraph)
    rebuild_hashcons(egraph)
    assert _graph_state(egraph) == before


@settings(max_examples=60, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40))
def test_invariants_hold_after_every_operation(operations):
    egraph = EGraph()
    ids = [egraph.add_term(Term("U", (Term("x"), Term("y"))))]
    # The dirty ids of the current search epoch: every operation's are taken
    # at once and pooled here, which is what one take at the epoch's end
    # would return.
    epoch: set = set()

    def dirty_now() -> set:
        epoch.update(egraph.take_dirty())
        return {egraph.find(id_) for id_ in epoch}

    for kind, payload in operations:
        if kind == "add":
            before = len(egraph._union_find)
            ids.append(egraph.add_term(payload))
            # Dirty-set soundness: every freshly created class is dirty.
            for new_id in range(before, len(egraph._union_find)):
                assert egraph.find(new_id) in dirty_now()
        elif kind == "merge":
            a, b = payload
            a, b = ids[a % len(ids)], ids[b % len(ids)]
            if egraph.find(a) != egraph.find(b):
                kept = egraph.merge(a, b)
                assert egraph.find(kept) in dirty_now()
        elif kind == "rebuild":
            _rebuild(egraph)
        else:  # take-dirty opens a new search epoch
            dirty_now()
            epoch.clear()
            assert egraph.take_dirty() == set()
        # Every dirty id taken this epoch still resolves to a live class.
        assert all(egraph.find(id_) in egraph._classes for id_ in epoch)
        egraph.check_invariants()
    _rebuild(egraph)
    egraph.check_invariants()


_leaf_term = st.recursive(
    st.sampled_from(["a", "b", "x", "y"]).map(Term),
    lambda children: st.one_of(
        children.map(lambda child: Term("g", (child,))),
        st.tuples(children, children).map(lambda pair: Term("f", pair)),
    ),
    max_leaves=6,
)


def _t(text: str) -> Term:
    return Term.parse(text)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_leaf_term, min_size=12, max_size=24),
    st.lists(st.tuples(st.sampled_from("abxy"), st.sampled_from("abxy")), min_size=2, max_size=3),
)
# Repairing a canonicalizes (f b (g x)) to (f a (g x)); a congruence merge
# later in the same rebuild folds (g x) into (g y), so only (f a (g y)) may
# be left as a key.
@example([_t("(f b (g x))"), _t("(g a)"), _t("(g (g y))")], [("a", "b"), ("y", "x")])
def test_leaf_merges_under_one_rebuild_leave_the_sweep_nothing(terms, merges):
    """Many terms over four leaves, then several leaf merges and one
    rebuild: congruence merges cascade over several repair passes and
    re-canonicalize parents an earlier pass already repaired."""
    egraph = EGraph()
    leaves = {leaf: egraph.add_term(Term(leaf)) for leaf in "abxy"}
    for term in terms:
        egraph.add_term(term)
    _rebuild(egraph)
    for u, v in merges:
        egraph.merge(leaves[u], leaves[v])
    _rebuild(egraph)
    egraph.check_invariants()


def test_take_dirty_reports_merges_into_canonical_survivors():
    egraph = EGraph()
    a = egraph.add_term(Term("U", (Term("x"), Term("y"))))
    b = egraph.add_term(Term("U", (Term("y"), Term("x"))))
    egraph.rebuild()
    egraph.take_dirty()
    kept = egraph.merge(a, b)
    egraph.rebuild()
    dirty = egraph.take_dirty()
    assert egraph.find(kept) in dirty
    # The raw ids keep the root merged away too, so a match cache keyed by
    # it can evict it without probing every key.
    assert {a, b} <= dirty
    # The epoch is consumed: nothing dirty until the graph changes again.
    assert egraph.take_dirty() == set()
    egraph.add_term(Term("T", (Term("z"),)))
    assert egraph.take_dirty() != set()


def test_congruence_merges_during_rebuild_are_reported_dirty():
    """A congruence merge discovered by rebuild (not by the caller) must
    still show up in the dirty stream — incremental search soundness."""
    egraph = EGraph()
    x, y = egraph.add_term(Term("x")), egraph.add_term(Term("y"))
    fx = egraph.add_term(Term("T", (Term("x"),)))
    fy = egraph.add_term(Term("T", (Term("y"),)))
    egraph.rebuild()
    egraph.take_dirty()
    egraph.merge(x, y)          # makes (T x) and (T y) congruent
    egraph.rebuild()            # rebuild performs the congruence merge
    dirty = egraph.take_dirty()
    assert egraph.find(fx) == egraph.find(fy)
    assert egraph.find(fx) in dirty
    egraph.check_invariants()


def test_checker_detects_hashcons_corruption():
    egraph = EGraph()
    egraph.add_term(Term("U", (Term("x"), Term("y"))))
    egraph.rebuild()
    # The hashcons is keyed by flat (op_id, *args) tuples; smuggle in a
    # ghost entry for an interned-but-unstored operator.
    egraph._hashcons[(egraph.symbols.intern("ghost"),)] = 0
    with pytest.raises(AssertionError):
        egraph.check_invariants()


def test_checker_detects_congruence_violation():
    egraph = EGraph()
    x = egraph.add_term(Term("x"))
    y = egraph.add_term(Term("y"))
    egraph.rebuild()
    # Smuggle a duplicate canonical node into a second class (nodes are
    # stored flat; the decoded `.nodes` view is a cache, not the storage).
    egraph._classes[y].append_flat(egraph._classes[x].flat[0])
    egraph._enode_count += 1  # keep the count honest so congruence fires
    with pytest.raises(AssertionError):
        egraph.check_invariants()


def test_checker_detects_class_table_unionfind_divergence():
    egraph = EGraph()
    egraph.add_term(Term("x"))
    egraph.rebuild()
    orphan = egraph._union_find.make_set()
    assert orphan not in egraph._classes
    with pytest.raises(AssertionError):
        egraph.check_invariants()
