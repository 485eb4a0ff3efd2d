"""Tests for the e-class analysis protocol (make / merge / modify).

The protocol is the egg-style mechanism the incremental extraction cost
analysis rides on: data made at ``add_enode``, joined on ``merge``, and
propagated to parents during ``rebuild`` (including rebuild-time congruence
merges).  The deterministic tests pin each hook; the hypothesis schedule
proves that data maintained *incrementally* through an arbitrary
add/merge/rebuild history equals data computed retroactively on the final
graph — and that :meth:`EGraph.check_invariants`'s quiescence check holds
throughout.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # no dependency manifest; keep the gate runnable
from hypothesis import example, given, settings, strategies as st

from repro.egraph.egraph import Analysis, EGraph, ENode
from repro.egraph.extract import CostAnalysis, Extractor, ast_size_cost
from repro.lang.term import Term
from saturation_oracle import PostHocExtractor


class MinLeafAnalysis(Analysis):
    """Smallest leaf operator (by string) reachable from each class.

    A tiny but non-trivial semilattice: ``make`` of a leaf is its own op,
    ``make`` of an interior node is the join over its children, ``merge``
    is ``min``.
    """

    key = "min-leaf"

    def make(self, egraph, enode):
        if not enode.args:
            return str(enode.op)
        best = None
        for arg in enode.args:
            child = egraph.analysis_data(arg, self.key)
            if child is None:
                return None
            best = child if best is None else min(best, child)
        return best

    def merge(self, a, b):
        return min(a, b)


class FoldToLeafAnalysis(MinLeafAnalysis):
    """A modify() hook that injects the analysis result into the class.

    Mirrors egg's constant folding: when a class's value is known, add the
    corresponding leaf e-node and merge it in.
    """

    key = "fold-leaf"

    def modify(self, egraph, class_id):
        value = egraph.analysis_data(class_id, self.key)
        if value is None or not value.startswith("!"):
            return
        leaf = egraph.add_enode(ENode(value))
        egraph.merge(class_id, leaf)


class TestAnalysisProtocol:
    def test_data_is_total_and_made_bottom_up(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        root = egraph.add_term(Term.parse("(U (V b) (W c a))"))
        assert egraph.analysis_data(root, "min-leaf") == "a"
        for eclass in egraph.classes():
            assert "min-leaf" in eclass.data

    def test_merge_joins_both_sides(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        a = egraph.add_term(Term.parse("(U m)"))
        b = egraph.add_term(Term.parse("(V c)"))
        kept = egraph.merge(a, b)
        assert egraph.analysis_data(kept, "min-leaf") == "c"

    def test_improvement_propagates_to_parents_on_rebuild(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        root = egraph.add_term(Term.parse("(U (V (W m)))"))
        assert egraph.analysis_data(root, "min-leaf") == "m"
        inner = egraph.add_term(Term.parse("(W m)"))
        egraph.merge(inner, egraph.add_term(Term("b")))
        egraph.rebuild()
        assert egraph.analysis_data(root, "min-leaf") == "b"
        egraph.check_invariants()

    def test_congruence_merge_during_rebuild_joins_data(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        x, y = egraph.add_leaf("x"), egraph.add_leaf("y")
        tx = egraph.add_enode(ENode("T", (x,)))
        ty = egraph.add_enode(ENode("T", (y,)))
        egraph.merge(x, y)
        egraph.rebuild()  # (T x) and (T y) become congruent and merge
        assert egraph.find(tx) == egraph.find(ty)
        assert egraph.analysis_data(tx, "min-leaf") == "x"
        egraph.check_invariants()

    def test_retroactive_registration_initializes_existing_classes(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(U (V b) a)"))
        egraph.register_analysis(MinLeafAnalysis())
        assert egraph.analysis_data(root, "min-leaf") == "a"
        egraph.check_invariants()

    def test_registration_is_idempotent_for_the_same_object(self):
        egraph = EGraph()
        analysis = MinLeafAnalysis()
        egraph.register_analysis(analysis)
        egraph.register_analysis(analysis)
        assert egraph.analyses == (analysis,)

    def test_conflicting_key_is_rejected(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        with pytest.raises(ValueError, match="already registered"):
            egraph.register_analysis(MinLeafAnalysis())

    def test_modify_hook_can_extend_the_class(self):
        egraph = EGraph()
        egraph.register_analysis(FoldToLeafAnalysis())
        root = egraph.add_term(Term.parse("(U !q)"))
        egraph.rebuild()
        # modify() merged the folded leaf into the root class.
        assert egraph.find(root) == egraph.find(egraph.add_enode(ENode("!q")))
        egraph.check_invariants()

    def test_analysis_updates_counter_moves(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        before = egraph.analysis_updates
        egraph.add_term(Term.parse("(U a b)"))
        assert egraph.analysis_updates > before

    def test_plain_data_keys_keep_the_b_wins_policy(self):
        egraph = EGraph()
        egraph.register_analysis(MinLeafAnalysis())
        a = egraph.add_term(Term.parse("(U m)"))
        b = egraph.add_term(Term.parse("(V c)"))
        egraph.eclass(a).data["tag"] = "from-a"
        egraph.eclass(b).data["tag"] = "from-b"
        kept = egraph.merge(a, b)
        assert egraph.eclass(kept).data["tag"] == "from-b"
        assert egraph.analysis_data(kept, "min-leaf") == "c"


class TestCostAnalysis:
    def test_tracks_best_cost_and_witness(self):
        egraph = EGraph()
        egraph.register_analysis(CostAnalysis(ast_size_cost))
        root = egraph.add_term(Term.parse("(Union (Inter A B) C)"))
        cost, witness = egraph.analysis_data(root, "cost:ast_size_cost")
        assert cost == 5.0
        assert witness.op == "Union"

    def test_merge_keeps_the_cheaper_side_and_propagates(self):
        egraph = EGraph()
        egraph.register_analysis(CostAnalysis(ast_size_cost))
        root = egraph.add_term(Term.parse("(F (F (F (Union A B))))"))
        inner = egraph.add_term(Term.parse("(Union A B)"))
        egraph.merge(inner, egraph.add_leaf("C"))
        egraph.rebuild()
        cost, _ = egraph.analysis_data(root, "cost:ast_size_cost")
        assert cost == 4.0  # (F (F (F C)))
        egraph.check_invariants()

    def test_extractor_reuses_registered_analysis(self):
        egraph = EGraph()
        analysis = egraph.register_analysis(CostAnalysis(ast_size_cost))
        root = egraph.add_term(Term.parse("(Union (Inter A B) C)"))
        egraph.rebuild()
        extractor = Extractor(egraph, ast_size_cost)
        assert extractor._analysis is analysis  # queries walk its witnesses
        assert extractor.cost_of(root) == 5.0
        assert extractor.extract(root) == Term.parse("(Union (Inter A B) C)")

    def test_extractor_falls_back_to_scratch_for_other_cost_functions(self):
        def double_cost(op, child_costs):
            return 2.0 + sum(child_costs)

        egraph = EGraph()
        egraph.register_analysis(CostAnalysis(ast_size_cost))
        root = egraph.add_term(Term.parse("(Union A B)"))
        egraph.rebuild()
        extractor = Extractor(egraph, double_cost)
        assert extractor._analysis is None
        assert extractor.cost_of(root) == 6.0

    def test_extractor_ignores_stale_analysis_mid_rebuild(self):
        egraph = EGraph()
        egraph.register_analysis(CostAnalysis(ast_size_cost))
        root = egraph.add_term(Term.parse("(F (Union A B))"))
        egraph.merge(egraph.add_term(Term.parse("(Union A B)")), egraph.add_leaf("C"))
        # No rebuild: propagation is pending, the analysis must not be
        # trusted — the scratch path sees the merged leaf immediately.
        extractor = Extractor(egraph, ast_size_cost)
        assert extractor._analysis is None
        assert extractor.cost_of(root) == 2.0


# -- incremental-vs-retroactive equivalence (property) --------------------------

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


def _apply_schedule(egraph, operations):
    ids = [egraph.add_term(Term("U", (Term("x"), Term("y"))))]
    for kind, payload in operations:
        if kind == "add":
            ids.append(egraph.add_term(payload))
        elif kind == "merge":
            a, b = payload
            egraph.merge(ids[a % len(ids)], ids[b % len(ids)])
        else:
            egraph.rebuild()
    egraph.rebuild()


@settings(max_examples=60, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40))
# A merge whose surviving side has the better value must still re-make the
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
def test_incremental_analysis_equals_retroactive_registration(operations):
    incremental = EGraph()
    analysis = CostAnalysis(ast_size_cost)
    incremental.register_analysis(analysis)
    _apply_schedule(incremental, operations)
    incremental.check_invariants()

    retroactive = EGraph()
    _apply_schedule(retroactive, operations)
    late = CostAnalysis(ast_size_cost)
    retroactive.register_analysis(late)
    retroactive.check_invariants()

    # Same classes (schedules are deterministic), same best costs — the
    # incremental bookkeeping may not drift from the ground-up fixpoint.
    inc_costs = {
        cid: incremental.analysis_data(cid, analysis.key)[0]
        for cid in sorted(c.id for c in incremental.classes())
    }
    retro_costs = {
        cid: retroactive.analysis_data(cid, late.key)[0]
        for cid in sorted(c.id for c in retroactive.classes())
    }
    assert inc_costs == retro_costs

    # And both agree with the post-hoc fixpoint extractor, and with the
    # k-best answer the extractor gives a graph without the analysis.
    scratch = EGraph()
    _apply_schedule(scratch, operations)
    posthoc = PostHocExtractor(scratch, ast_size_cost)
    kbest = Extractor(scratch, ast_size_cost)
    for cid, cost in inc_costs.items():
        assert posthoc.cost_of(cid) == cost
        assert kbest.cost_of(cid) == cost
