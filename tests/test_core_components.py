"""Unit tests for the core components: lists, the fold worklist, the
determinizer, list manipulation, cost functions, and program analysis."""

import pytest

from repro.cad.build import cons_list, fold_union, fun, int_list, mapi, repeat, fold, nil
from repro.core.analysis import find_loops, function_kinds
from repro.core.cost import COST_FUNCTIONS, ast_size_cost_fn, get_cost_function, reward_loops_cost_fn
from repro.core.determinize import Determinizer
from repro.core.lists import (
    ListReadError,
    find_fold_matches,
    fold_worklist,
    read_list_elements,
    sort_elements,
)
from repro.core.rules import default_rules
from repro.csg.build import cube, rotate, scale, sphere, translate, union, union_all, unit
from repro.csg.ops import affine_chain
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.runner import Runner
from repro.lang.term import Term


class TestListSpines:
    def test_read_simple_spine(self):
        egraph = EGraph()
        spine = egraph.add_term(cons_list([cube(), sphere(), unit()]))
        elements = read_list_elements(egraph, spine)
        assert len(elements) == 3
        assert egraph.nodes(elements[0])[0].op == "Cube"

    def test_read_with_concat_and_repeat(self):
        egraph = EGraph()
        left = egraph.add_term(cons_list([cube()]))
        right = egraph.add_term(repeat(sphere(), 3))
        spine = egraph.add_enode(ENode("Concat", (left, right)))
        elements = read_list_elements(egraph, spine)
        assert len(elements) == 4

    def test_read_prefers_longest_variant(self):
        egraph = EGraph()
        long_spine = egraph.add_term(cons_list([cube(), sphere(), unit()]))
        short_spine = egraph.add_term(cons_list([cube()]))
        egraph.merge(long_spine, short_spine)
        egraph.rebuild()
        assert len(read_list_elements(egraph, long_spine)) == 3

    def test_read_non_list_raises(self):
        egraph = EGraph()
        root = egraph.add_term(cube())
        with pytest.raises(ListReadError):
            read_list_elements(egraph, root)

    def test_find_fold_matches(self):
        egraph = EGraph()
        egraph.add_term(fold_union(cons_list([cube(), sphere()])))
        matches = find_fold_matches(egraph)
        assert len(matches) == 1
        _fold, function, _acc, list_class = matches[0]
        assert egraph.nodes(function)[0].op == "Union"
        assert len(read_list_elements(egraph, list_class)) == 2


class TestFoldWorklist:
    def test_only_commutative_folds_long_enough_longest_first(self):
        egraph = EGraph()
        egraph.add_term(fold_union(cons_list([cube(), sphere()])))
        egraph.add_term(fold_union(cons_list([unit(), cube(), sphere()])))
        egraph.add_term(fold(Term("Diff"), nil(), cons_list([sphere(), unit(), cube()])))
        work = fold_worklist(egraph, min_length=2)
        assert [len(elements) for _list_class, elements in work] == [3, 2]
        assert fold_worklist(egraph, min_length=3) == work[:1]
        for list_class, elements in work:
            assert read_list_elements(egraph, list_class) == elements


class TestDeterminizer:
    def _folded_egraph(self, elements):
        egraph = EGraph()
        root = egraph.add_term(union_all(elements))
        Runner(default_rules()).run(egraph)
        matches = find_fold_matches(egraph)
        assert matches
        # Longest list corresponds to the full chain.
        best = max(matches, key=lambda m: len(read_list_elements(egraph, m[3])))
        return egraph, read_list_elements(egraph, best[3])

    def test_uniform_signature_chosen(self):
        elements = [translate(2.0 * i, 0, 0, rotate(0, 0, 10.0 * i, cube())) for i in range(1, 4)]
        egraph, element_classes = self._folded_egraph(elements)
        (determinized,) = Determinizer(egraph).determinize_all(element_classes, max_variants=1)
        assert len(determinized.signature) >= 1
        for element in determinized.elements:
            layers, _core = affine_chain(element)
            assert tuple(op for op, _vector in layers) == determinized.signature

    def test_prefers_longer_signature(self):
        elements = [translate(2.0 * i, 0, 0, scale(1.0 + i, 1, 1, cube())) for i in range(1, 4)]
        egraph, element_classes = self._folded_egraph(elements)
        determinized = Determinizer(egraph).determinize_all(element_classes)[0]
        # Both the Translate . Scale and its reordered / collapsed variants
        # exist; the determinizer should keep the two-layer view.
        assert len(determinized.signature) == 2

    def test_empty_input(self):
        egraph = EGraph()
        assert Determinizer(egraph).determinize_all([]) == []

    def test_merge_invalidates_materialize_memo(self):
        egraph = EGraph()
        a = egraph.add_term(scale(2, 1, 1, cube()))
        b = egraph.add_term(translate(3, 0, 0, cube()))
        determinizer = Determinizer(egraph)
        # B has no Scale e-node, so no variant can start with Scale...
        before = determinizer.determinize_all([a, b])
        assert ("Scale",) not in [variant.signature for variant in before]
        # ...until a merge gives B one: the memoized "no Scale variant of B"
        # from the first call must not survive the merge.
        egraph.merge(b, egraph.add_term(scale(1, 1, 1, translate(3, 0, 0, cube()))))
        after = determinizer.determinize_all([a, b])
        assert ("Scale",) in [variant.signature for variant in after]
        assert determinizer.materialize_memo_hits <= determinizer.materialize_calls

    def test_merge_term_into_unread_classes_keeps_the_materialize_memo(self):
        egraph = EGraph()
        a = egraph.add_term(translate(1, 0, 0, cube()))
        b = egraph.add_term(translate(2, 0, 0, cube()))
        spare = egraph.add_term(sphere())
        determinizer = Determinizer(egraph)
        first = determinizer.determinize_all([a, b])
        calls, hits = determinizer.materialize_calls, determinizer.materialize_memo_hits
        # No answer read the sphere's class or the new Scale class, so
        # merging them changes no answer: every repeated question hits.
        determinizer.merge_term(spare, scale(2, 2, 2, sphere()))
        second = determinizer.determinize_all([a, b])
        assert [v.elements for v in second] == [v.elements for v in first]
        assert determinizer.materialize_calls - calls == 4
        assert determinizer.materialize_memo_hits - hits == 4
        assert determinizer.materialize_memo_drops == 0

    def test_merge_term_into_a_read_class_drops_the_materialize_memo(self):
        egraph = EGraph()
        a = egraph.add_term(scale(2, 1, 1, cube()))
        b = egraph.add_term(translate(3, 0, 0, cube()))
        determinizer = Determinizer(egraph)
        before = determinizer.determinize_all([a, b])
        assert ("Scale",) not in [variant.signature for variant in before]
        # An answer read B ("no Scale variant of B"), so merging a Scale
        # e-node into B through merge_term must drop the memo.
        determinizer.merge_term(b, scale(1, 1, 1, translate(3, 0, 0, cube())))
        after = determinizer.determinize_all([a, b])
        assert ("Scale",) in [variant.signature for variant in after]
        assert determinizer.materialize_memo_drops == 1

    def test_merge_term_does_not_revive_a_memo_another_merge_made_stale(self):
        egraph = EGraph()
        a = egraph.add_term(scale(2, 1, 1, cube()))
        b = egraph.add_term(translate(3, 0, 0, cube()))
        spare = egraph.add_term(sphere())
        determinizer = Determinizer(egraph)
        determinizer.determinize_all([a, b])
        egraph.merge(b, egraph.add_term(scale(1, 1, 1, translate(3, 0, 0, cube()))))
        # A merge_term into unread classes must not revalidate the memo the
        # merge above made stale.
        determinizer.merge_term(spare, scale(2, 2, 2, sphere()))
        after = determinizer.determinize_all([a, b])
        assert ("Scale",) in [variant.signature for variant in after]


class TestRuleSetCompilation:
    def test_default_rules_compile_once_per_process_and_rules_per_call(self, monkeypatch):
        import repro.core.pipeline as pipeline
        from repro.core.config import SynthesisConfig
        from repro.core.pipeline import synthesize

        compiled = []

        def spy(rules, *args, **kwargs):
            runner = Runner(rules, *args, **kwargs)
            compiled.append(runner.compiled)
            return runner

        monkeypatch.setattr(pipeline, "Runner", spy)
        model = union_all([translate(2.0 * (i + 1), 0, 0, unit()) for i in range(4)])
        first, second = synthesize(model), synthesize(model)
        explicit = synthesize(model, rules=default_rules(SynthesisConfig().rule_categories))
        assert compiled[0] is compiled[1]
        assert compiled[2] is not compiled[0]
        assert compiled[2].rule_names == compiled[0].rule_names
        for result in (second, explicit):
            assert [(c.cost, c.term) for c in result.candidates] == [
                (c.cost, c.term) for c in first.candidates
            ]


class TestListManipulation:
    def test_sort_elements_lexicographic(self):
        elements = [
            translate(3.0, 0, 0, cube()),
            translate(1.0, 0, 0, cube()),
            translate(2.0, 0, 0, cube()),
        ]
        ordered = sort_elements(elements)
        xs = [e.children[0].value for e in ordered]
        assert xs == [1.0, 2.0, 3.0]


class TestCostFunctions:
    def test_registry(self):
        assert set(COST_FUNCTIONS) == {"ast-size", "reward-loops"}
        assert get_cost_function("ast-size") is ast_size_cost_fn
        with pytest.raises(KeyError):
            get_cost_function("bogus")

    def test_ast_size_counts_nodes(self):
        assert ast_size_cost_fn("Union", [1.0, 1.0]) == 3.0

    def test_reward_loops_discounts_loop_subtrees(self):
        plain = ast_size_cost_fn("Mapi", [20.0, 10.0])
        discounted = reward_loops_cost_fn("Mapi", [20.0, 10.0])
        assert discounted < plain

    def test_reward_loops_neutral_elsewhere(self):
        assert reward_loops_cost_fn("Union", [5.0, 5.0]) == ast_size_cost_fn("Union", [5.0, 5.0])


class TestProgramAnalysis:
    def test_single_mapi_loop(self):
        program = fold_union(
            mapi(fun(("i", "c"), Term("c")), repeat(cube(), 60))
        )
        loops = find_loops(program)
        assert len(loops) == 1
        assert loops[0].bounds == (60,)
        assert loops[0].label() == "n1,60"

    def test_nested_fold_loops(self):
        inner = fold(fun(("j",), translate(1, 2, 3, cube())), nil(), int_list(range(3)))
        outer = fold(fun(("i",), inner), nil(), int_list(range(2)))
        program = fold_union(outer)
        loops = find_loops(program)
        assert loops and loops[0].nesting == 2
        assert loops[0].bounds == (2, 3)

    def test_no_loops(self):
        assert find_loops(union(cube(), sphere())) == []

    def test_function_kinds_d1(self):
        program = mapi(
            fun(("i", "c"), Term("Translate", (Term.parse("(Mul 2 i)"), Term.num(0), Term.num(0), Term("c")))),
            repeat(cube(), 4),
        )
        assert function_kinds(program) == ["d1"]

    def test_function_kinds_d2_and_theta(self):
        quadratic_body = Term.parse("(Translate (Mul 2 (Mul i i)) 0 0 c)")
        trig_body = Term.parse("(Translate (Sin (Mul 90 i)) 0 0 c)")
        program = union(
            fold_union(mapi(Term("Fun", (Term("i"), Term("c"), quadratic_body)), repeat(cube(), 3))),
            fold_union(mapi(Term("Fun", (Term("i"), Term("c"), trig_body)), repeat(cube(), 3))),
        )
        kinds = function_kinds(program)
        assert "d2" in kinds and "theta" in kinds
