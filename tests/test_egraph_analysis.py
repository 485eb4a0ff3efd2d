"""Tests for the e-graph's built-in best-cost slot.

Every e-class keeps its best AST-size cost and a witness e-node: made at
``add_enode``, joined on ``merge`` and propagated to parents during
``rebuild`` (including rebuild-time congruence merges).  The deterministic
tests pin each step; the hypothesis schedule checks, over an arbitrary
add/merge/rebuild history, that the rebuilt slots equal the post-hoc
fixpoint of ``tests/saturation_oracle.py``, and that with merges still
pending every witness walk ends without revisiting a class, at a term no
larger than the stored cost.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # no dependency manifest; keep the gate runnable
from hypothesis import example, given, settings, strategies as st

from repro.core.cost import reward_loops_cost_fn
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import Extractor, TopKExtractor, ast_size_cost
from repro.lang.term import Term
from saturation_oracle import PostHocExtractor


def _witness_op(egraph, class_id):
    return egraph.symbols.op(egraph.eclass(class_id).witness[0])


class TestCostAnalysis:
    def test_tracks_best_cost_and_witness(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union (Inter A B) C)"))
        assert egraph.eclass(root).cost == 5.0
        assert _witness_op(egraph, root) == "Union"

    def test_slot_is_total_and_made_bottom_up(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(U (V b) (W c a))"))
        assert egraph.eclass(root).cost == 6.0
        for eclass in egraph.classes():
            witness = eclass.witness
            assert witness in eclass.flat
            children = sum(egraph.eclass(arg).cost for arg in witness[1:])
            assert eclass.cost == 1.0 + children

    def test_merge_joins_both_sides(self):
        egraph = EGraph()
        a = egraph.add_term(Term.parse("(U m)"))
        b = egraph.add_term(Term.parse("(V (W c))"))
        kept = egraph.merge(b, a)
        assert {egraph.symbols.op(node[0]) for node in egraph.eclass(kept).flat} == {"U", "V"}
        assert egraph.eclass(kept).cost == 2.0
        assert _witness_op(egraph, kept) == "U"

    def test_cheaper_side_wins_whichever_class_survives(self):
        egraph = EGraph()
        dear = egraph.add_term(Term.parse("(U m n)"))
        egraph.add_term(Term.parse("(F (U m n))"))
        egraph.add_term(Term.parse("(G (U m n))"))
        cheap = egraph.add_leaf("c")
        keep = egraph.merge(cheap, dear)
        assert keep == dear  # more parents: the dearer class survives...
        assert egraph.eclass(keep).cost == 1.0  # ...with the cheaper slot
        assert _witness_op(egraph, keep) == "c"

    def test_merge_keeps_the_cheaper_side_and_propagates(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(F (F (F (Union A B))))"))
        inner = egraph.add_term(Term.parse("(Union A B)"))
        egraph.merge(inner, egraph.add_leaf("C"))
        assert egraph.eclass(inner).cost == 1.0  # joined at once...
        assert egraph.eclass(root).cost == 6.0  # ...parents wait for rebuild
        assert not egraph.quiescent
        egraph.rebuild()
        assert egraph.quiescent
        assert egraph.eclass(root).cost == 4.0  # (F (F (F C)))
        egraph.check_invariants()

    def test_improvement_propagates_only_to_parents_it_lowers(self):
        egraph = EGraph()
        shared = egraph.add_term(Term.parse("(U a b)"))
        lowered = egraph.add_term(Term.parse("(F (U a b))"))
        cheaper = egraph.add_term(Term.parse("(G (U a b))"))
        egraph.merge(cheaper, egraph.add_leaf("g"))
        egraph.rebuild()
        before = egraph.analysis_updates
        egraph.merge(shared, egraph.add_leaf("c"))
        egraph.rebuild()
        assert egraph.eclass(lowered).cost == 2.0  # (F c)
        assert egraph.eclass(cheaper).cost == 1.0  # g already beats (G c)
        assert _witness_op(egraph, cheaper) == "g"
        # The leaf c's slot, the merged class lowered, then F's class alone.
        assert egraph.analysis_updates - before == 3
        egraph.check_invariants()

    def test_a_tie_keeps_the_survivors_witness(self):
        egraph = EGraph()
        a = egraph.add_leaf("A")
        b = egraph.add_leaf("B")
        egraph.add_term(Term.parse("(F A)"))  # a has more parents: it survives
        keep = egraph.merge(b, a)
        assert keep == egraph.find(a)
        assert _witness_op(egraph, keep) == "A"

    def test_congruence_merge_during_rebuild_joins_slots(self):
        egraph = EGraph()
        x = egraph.add_leaf("x")
        y = egraph.add_term(Term.parse("(G (G y))"))
        tx = egraph.add_enode(ENode("T", (x,)))
        ty = egraph.add_enode(ENode("T", (y,)))
        egraph.merge(x, y)
        egraph.rebuild()  # (T x) and (T y) become congruent and merge
        assert egraph.find(tx) == egraph.find(ty)
        assert egraph.eclass(ty).cost == 2.0
        egraph.check_invariants()

    def test_analysis_updates_counter_moves(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(U a b)"))
        assert egraph.analysis_updates == 3  # one slot per new class
        root = egraph.add_term(Term.parse("(F (U a b))"))
        egraph.merge(egraph.add_term(Term.parse("(U a b)")), egraph.add_leaf("c"))
        egraph.rebuild()
        # +2 classes (F, c), the merged class lowered, then its parent F.
        assert egraph.analysis_updates == 7
        assert egraph.eclass(root).cost == 2.0

    def test_extractor_walks_the_witnesses(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union (Inter A B) C)"))
        extractor = Extractor(egraph)
        assert extractor.cost_of(root) == 5.0
        assert extractor.extract(root) == Term.parse("(Union (Inter A B) C)")

    def test_extractor_walk_sees_pending_merges(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(F (Union A B))"))
        egraph.merge(egraph.add_term(Term.parse("(Union A B)")), egraph.add_leaf("C"))
        # No rebuild: the root's stored cost is stale (an upper bound), but
        # the walk already reads the merged class's cheaper witness.
        extractor = Extractor(egraph)
        assert extractor.cost_of(root) == 4.0
        assert extractor.extract(root) == Term.parse("(F C)")

    def test_extractor_walk_ends_on_a_merge_made_cycle(self):
        egraph = EGraph()
        x = egraph.add_leaf("x")
        fx = egraph.add_enode(ENode("F", (x,)))
        root = egraph.add_enode(ENode("G", (fx,)))
        egraph.merge(fx, x)  # the class {x, (F x)} now contains itself via F
        # Mid-rebuild the witness is already the leaf, not the self-loop.
        assert Extractor(egraph).extract(root) == Term.parse("(G x)")
        egraph.rebuild()
        assert egraph.eclass(root).cost == 2.0
        assert Extractor(egraph).extract(root) == Term.parse("(G x)")

    def test_top_k_ignores_stale_slots_mid_rebuild(self):
        egraph = EGraph()
        inner = egraph.add_term(Term.parse("(F (Union A B))"))
        root = egraph.add_enode(ENode("H", (inner,)))
        egraph.merge(egraph.add_term(Term.parse("(Union A B)")), egraph.add_leaf("C"))
        # No rebuild: the slot of (F ...) still says 4, but the streams see
        # the merged leaf at once.
        assert egraph.eclass(inner).cost == 4.0
        best = TopKExtractor(egraph, ast_size_cost).best(root)
        assert (best.cost, best.term) == (3.0, Term.parse("(H (F C))"))

    def test_top_k_under_another_cost_function_ignores_the_slots(self):
        def double_cost(op, child_costs):
            return 2.0 + sum(child_costs)

        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union A B)"))
        assert TopKExtractor(egraph, double_cost).best(root).cost == 6.0

    def test_top_k_prices_rank0_from_the_slots_only_when_quiescent(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(F (Union A B))"))
        assert TopKExtractor(egraph, ast_size_cost).priced
        assert not TopKExtractor(egraph, reward_loops_cost_fn).priced
        egraph.merge(egraph.add_term(Term.parse("(Union A B)")), egraph.add_leaf("C"))
        assert not TopKExtractor(egraph, ast_size_cost).priced
        egraph.rebuild()
        assert TopKExtractor(egraph, ast_size_cost).best(root).term == Term.parse("(F C)")


# -- the slot against the post-hoc fixpoint (property) --------------------------

_leaf = st.sampled_from(["x", "y", "z", 0, 1])
_term = st.recursive(
    _leaf.map(Term),
    lambda children: st.tuples(
        st.sampled_from(["U", "I", "T"]), st.lists(children, min_size=1, max_size=2)
    ).map(lambda pair: Term(pair[0], tuple(pair[1]))),
    max_leaves=8,
)

_operation = st.one_of(
    st.tuples(st.just("add"), _term),
    st.tuples(st.just("merge"), st.tuples(st.integers(0, 50), st.integers(0, 50))),
    st.tuples(st.just("rebuild"), st.none()),
)


def _walk_witnesses(egraph, class_id, path=frozenset()):
    """The witness derivation of ``class_id``, failing on a class revisit.

    Checks on the way that each class's term is no larger than its stored
    cost.
    """
    class_id = egraph.find(class_id)
    assert class_id not in path, f"witness walk revisits class {class_id}"
    eclass = egraph.eclass(class_id)
    witness = eclass.witness
    children = tuple(_walk_witnesses(egraph, arg, path | {class_id}) for arg in witness[1:])
    term = Term(egraph.symbols.op(witness[0]), children)
    assert term.size() <= eclass.cost
    return term


def _assert_walks_end(egraph):
    extractor = Extractor(egraph)
    for eclass in list(egraph.classes()):
        assert extractor.extract(eclass.id) == _walk_witnesses(egraph, eclass.id)


@settings(max_examples=60, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40))
# A merge whose surviving side has the better value must still re-price the
# absorbed side's parents: here U(x) joins the cheaper x class, and the
# class of U(x, U(x)) has to drop from cost 4 to 3.
@example(
    [("add", Term("x"))] * 7
    + [
        ("merge", (0, 1)),
        ("add", Term("U", (Term("x"), Term("U", (Term("x"),))))),
        ("add", Term("U", (Term("x"),))),
        ("merge", (0, 9)),
    ]
)
def test_slots_equal_the_post_hoc_fixpoint_and_walks_end_mid_rebuild(operations):
    egraph = EGraph()
    ids = [egraph.add_term(Term("U", (Term("x"), Term("y"))))]
    for kind, payload in operations:
        if kind == "add":
            ids.append(egraph.add_term(payload))
        elif kind == "merge":
            a, b = payload
            egraph.merge(ids[a % len(ids)], ids[b % len(ids)])
        else:
            egraph.rebuild()
        _assert_walks_end(egraph)
    egraph.rebuild()
    egraph.check_invariants()

    posthoc = PostHocExtractor(egraph)
    for eclass in egraph.classes():
        assert eclass.cost == posthoc.cost_of(eclass.id)
        assert Extractor(egraph).extract(eclass.id).size() == eclass.cost
