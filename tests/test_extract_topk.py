"""Extraction tests: lazy k-best heaps, cost-function behavior, cycles.

These pin the behavior of the lazy (Eppstein-style) k-best candidate
streams — distinct realizable terms in cost order, full coverage of child
rank combinations, correct best terms on equivalence cycles under both
monotone and non-monotone costs — and of ``best_per_enode`` on merged
classes, plus parity between the extractors and brute-force expectations.
"""

import pytest

from repro.core.cost import ast_size_cost_fn, reward_loops_cost_fn
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import Extractor, TopKExtractor, ast_size_cost
from repro.egraph.rewrite import rewrite
from repro.egraph.runner import Runner, RunnerLimits
from repro.lang.term import Term


class TestLazyKBestStreams:
    def _merged_class(self, egraph, alternatives):
        """A class holding several disjoint alternatives (distinct costs)."""
        ids = [egraph.add_term(term) for term in alternatives]
        for other in ids[1:]:
            egraph.merge(ids[0], other)
        egraph.rebuild()
        return egraph.find(ids[0])

    #: Three equivalent variants with ast-size costs 1, 2, 3 — structurally
    #: disjoint, so merging them creates no equivalence cycles.
    _LEFT = ["A", "(F B)", "(G (H C))"]
    _RIGHT = ["X", "(P Y)", "(Q (R Z))"]

    def test_k1_returns_only_the_cheapest_combination(self):
        egraph = EGraph()
        left = self._merged_class(egraph, [Term.parse(t) for t in self._LEFT])
        right = self._merged_class(egraph, [Term.parse(t) for t in self._RIGHT])
        root = egraph.add_enode(ENode("Union", (left, right)))
        entries = TopKExtractor(egraph, ast_size_cost, k=1).extract_top_k(root)
        assert entries == [entries[0]]
        assert entries[0].term == Term.parse("(Union A X)")
        assert entries[0].cost == 3.0

    def test_streams_cover_all_rank_combinations(self):
        # The old cube pruning only explored bounded index sums; the lazy
        # heaps must enumerate *every* combination in cost order when asked
        # for enough entries.
        egraph = EGraph()
        left = self._merged_class(egraph, [Term.parse(t) for t in self._LEFT])
        right = self._merged_class(egraph, [Term.parse(t) for t in self._RIGHT])
        root = egraph.add_enode(ENode("Union", (left, right)))
        entries = TopKExtractor(egraph, ast_size_cost, k=9).extract_top_k(root)
        assert len(entries) == 9  # the full 3x3 product
        child_costs = [1.0, 2.0, 3.0]
        expected = sorted(1.0 + a + b for a in child_costs for b in child_costs)
        assert [e.cost for e in entries] == expected
        assert len({e.term for e in entries}) == 9

    def test_exhausted_streams_return_fewer_than_k(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union A B)"))
        entries = TopKExtractor(egraph, ast_size_cost, k=10).extract_top_k(root)
        assert [e.term for e in entries] == [Term.parse("(Union A B)")]

    def test_congruent_enodes_collapse_to_one_candidate(self):
        # Before a rebuild a class can hold two e-nodes that canonicalize to
        # the same thing; the streams must not enumerate their (identical)
        # derivations twice.
        egraph = EGraph()
        a = egraph.add_leaf("A")
        b = egraph.add_leaf("B")
        fa = egraph.add_enode(ENode("F", (a,)))
        fb = egraph.add_enode(ENode("F", (b,)))
        egraph.merge(a, b)
        egraph.merge(fa, fb)  # one class now holds F(a) and F(b), congruent
        entries = TopKExtractor(egraph, ast_size_cost, k=8).extract_top_k(fa)
        assert len(entries) == 2
        assert {e.term for e in entries} == {Term.parse("(F A)"), Term.parse("(F B)")}
        assert [e.cost for e in entries] == [2.0, 2.0]


def _merge_equivalent(egraph, term_a, term_b):
    a = egraph.add_term(term_a)
    b = egraph.add_term(term_b)
    egraph.merge(a, b)
    egraph.rebuild()
    return egraph.find(a)


class TestCostFunctions:
    def test_ast_size_picks_smaller_variant(self):
        egraph = EGraph()
        root = _merge_equivalent(
            egraph,
            Term.parse("(Union (Union A B) (Union A B))"),
            Term.parse("(Union A B)"),
        )
        extractor = TopKExtractor(egraph, ast_size_cost_fn, k=3)
        entries = extractor.extract_top_k(root)
        assert entries[0].term == Term.parse("(Union A B)")
        assert entries[0].cost == 3.0
        assert [e.cost for e in entries] == sorted(e.cost for e in entries)

    def test_reward_loops_discounts_mapi_subtree(self):
        # A Mapi variant that is *larger* in raw node count must still win
        # under reward-loops: its body is charged at a quarter.
        egraph = EGraph()
        flat = Term.parse("(Union A (Union B C))")  # 5 nodes
        mapi = Term.parse("(Mapi 3 (Fun i (G i)))")  # 6 nodes
        root = _merge_equivalent(egraph, flat, mapi)
        by_size = TopKExtractor(egraph, ast_size_cost_fn, k=2).extract_top_k(root)
        by_loops = TopKExtractor(egraph, reward_loops_cost_fn, k=2).extract_top_k(root)
        assert by_size[0].term.op != "Mapi"
        assert by_loops[0].term.op == "Mapi"

    def test_reward_loops_fold_with_bare_function_gets_no_discount(self):
        # Fold with a bare Union function (cost 1) is just re-association.
        assert reward_loops_cost_fn("Fold", [1.0, 1.0, 9.0]) == 12.0
        # Fold with an abstraction (cost > 1.5) is a genuine loop.
        assert reward_loops_cost_fn("Fold", [2.0, 1.0, 9.0]) == 1.0 + 0.25 * 12.0

    def test_reward_loops_discount_can_invert_rank_monotonicity(self):
        # Pinning the cube-pruning caveat: under reward-loops a *higher* rank
        # child (larger cost under ast-size ordering) can yield a *cheaper*
        # parent when the parent is a loop node, because the discount applies
        # to the whole subtree.  The bounded cube still only explores small
        # index sums; this documents (not fixes) that assumption.
        cheap_child, pricey_child = 4.0, 8.0
        plain_parent = ast_size_cost_fn("Union", [cheap_child])
        loop_parent = reward_loops_cost_fn("Mapi", [pricey_child])
        assert pricey_child > cheap_child
        assert loop_parent < plain_parent

    def test_top_k_same_under_both_costs_when_no_loops(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union (Inter A B) C)"))
        size_entries = TopKExtractor(egraph, ast_size_cost_fn, k=3).extract_top_k(root)
        loop_entries = TopKExtractor(egraph, reward_loops_cost_fn, k=3).extract_top_k(root)
        assert [e.term for e in size_entries] == [e.term for e in loop_entries]
        assert [e.cost for e in size_entries] == [e.cost for e in loop_entries]


class TestBestPerEnodeAfterMerges:
    def test_one_candidate_per_distinct_root_enode(self):
        egraph = EGraph()
        root = _merge_equivalent(
            egraph,
            Term.parse("(Union A B)"),
            Term.parse("(Inter C D)"),
        )
        extractor = TopKExtractor(egraph, ast_size_cost, k=5)
        entries = extractor.best_per_enode(root)
        assert {e.term.op for e in entries} == {"Union", "Inter"}
        assert [e.cost for e in entries] == sorted(e.cost for e in entries)

    def test_merged_child_uses_its_post_merge_best(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(F (Union A B))"))
        _merge_equivalent(egraph, Term.parse("(Union A B)"), Term("C"))
        extractor = TopKExtractor(egraph, ast_size_cost, k=5)
        entries = extractor.best_per_enode(root)
        # The F enode's child best is now the merged-in leaf C.
        assert entries[0].term == Term.parse("(F C)")

    def test_rewrite_then_merge_exposes_both_alternatives(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Empty)"))
        rule = rewrite("union-empty", "(Union ?x Empty)", "?x")
        Runner([rule], RunnerLimits(max_iterations=1)).run(egraph)
        entries = TopKExtractor(egraph, ast_size_cost, k=5).best_per_enode(root)
        terms = {e.term for e in entries}
        assert Term("Cube") in terms
        assert Term.parse("(Union Cube Empty)") in terms


class TestWorklistParity:
    def test_single_best_matches_term_size(self):
        egraph = EGraph()
        term = Term.parse("(Union (Translate 1 2 3 Cube) (Scale 4 5 6 Sphere))")
        root = egraph.add_term(term)
        extractor = Extractor(egraph)
        assert extractor.cost_of(root) == float(term.size())
        assert extractor.extract(root) == term

    def test_improvement_propagates_through_deep_chain(self):
        # A deep chain over a merged leaf: the worklist must push the cheap
        # alternative all the way to the root.
        egraph = EGraph()
        deep = Term.parse("(F (F (F (F (F (Union A B))))))")
        root = egraph.add_term(deep)
        _merge_equivalent(egraph, Term.parse("(Union A B)"), Term("C"))
        extractor = Extractor(egraph)
        assert extractor.extract(root) == Term.parse("(F (F (F (F (F C)))))")
        assert extractor.cost_of(root) == 6.0

    def test_topk_with_unextractable_sibling_class(self):
        # A class whose only e-node references an empty (never-completed)
        # class must simply contribute nothing.
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union A B)"))
        extractor = TopKExtractor(egraph, ast_size_cost, k=3)
        assert extractor.extract_top_k(root)[0].term == Term.parse("(Union A B)")

    def test_cycle_entries_are_skipped_not_looping(self):
        egraph = EGraph()
        x = egraph.add_leaf("X")
        union = egraph.add_enode(ENode("Union", (x, x)))
        egraph.merge(union, x)
        egraph.rebuild()
        entries = TopKExtractor(egraph, ast_size_cost, k=3).extract_top_k(x)
        assert entries[0].term == Term("X")

    def test_discounted_self_loop_cannot_displace_realizable_terms(self):
        # Regression: under reward-loops a Mapi merged with its own argument
        # class yields a self-referential candidate *cheaper* than any real
        # term (1 + 0.25*c < c); such unrealizable entries must not crowd
        # realizable ones out of the k table slots.
        egraph = EGraph()
        u = egraph.add_term(Term.parse("(Union A B)"))
        egraph.merge(egraph.add_enode(ENode("Mapi", (u,))), u)
        egraph.rebuild()
        entries = TopKExtractor(egraph, reward_loops_cost_fn, k=2).extract_top_k(u)
        assert entries[0].term == Term.parse("(Union A B)")
        # The single best needs the same guard: without it the self-loop
        # "wins" with a cost no realizable term has.
        single = TopKExtractor(egraph, reward_loops_cost_fn).best(u)
        assert single.term == Term.parse("(Union A B)")
        assert single.cost == 3.0

    def test_indirect_cycle_extracts_the_best_realizable_term(self):
        # A mutual Mapi cycle undercuts every realizable term under the
        # discount: the fixpoint best is an unmaterializable infinite tower.
        # The k-best streams rank only acyclic derivations, so the single
        # best and the top k are the correct best realizable term instead of
        # an error (this used to be a pinned ExtractionError limitation).
        egraph = EGraph()
        flat = Term.parse("(Union (Union P Q) (Union R (Union S T)))")  # 9 nodes
        a = egraph.add_term(flat)
        egraph.merge(egraph.add_enode(ENode("Mapi", (egraph.add_enode(ENode("Mapi", (a,))),))), a)
        egraph.rebuild()
        single = TopKExtractor(egraph, reward_loops_cost_fn).best(a)
        assert single.term == flat
        assert single.cost == 9.0
        entries = TopKExtractor(egraph, reward_loops_cost_fn, k=2).extract_top_k(a)
        assert entries[0].term == flat
        assert entries[0].cost == 9.0
        # Every other candidate at the root descends into the cycle, so the
        # realizable stream holds exactly one term.
        assert len(entries) == 1
        # The same graph extracts identically under the monotone cost.
        assert TopKExtractor(egraph, ast_size_cost, k=2).extract_top_k(a)[0].cost == 9.0

    def test_cycle_member_classes_still_extract_through_the_cycle(self):
        # The inner class of the cycle (Mapi a) is itself realizable as long
        # as its derivation does not revisit *itself*: descending into a's
        # flat variant is fine and keeps the discount.
        egraph = EGraph()
        flat = Term.parse("(Union (Union P Q) (Union R (Union S T)))")
        a = egraph.add_term(flat)
        inner = egraph.add_enode(ENode("Mapi", (a,)))
        egraph.merge(egraph.add_enode(ENode("Mapi", (inner,))), a)
        egraph.rebuild()
        best = TopKExtractor(egraph, reward_loops_cost_fn, k=2).best(inner)
        assert best.term == Term("Mapi", (flat,))
        assert best.cost == 1.0 + 0.25 * 9.0
