"""Unit tests for pattern matching, rewrites, the runner, and extraction."""

import pytest

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import Extractor, TopKExtractor, ast_size_cost
from repro.egraph.pattern import CompiledRuleSet, Pattern, PatternVar, parse_pattern, instantiate
from repro.egraph.rewrite import dynamic_rewrite, rewrite
from repro.egraph.runner import BackoffConfig, BackoffScheduler, Runner, RunnerLimits, StopReason
from repro.lang.term import Term


def _matches(rule, egraph):
    """Every match of ``rule``, from the compiled matcher the runner uses."""
    return CompiledRuleSet([rule]).search_classes(egraph)[rule.name]


def _fire(rule, egraph):
    """Apply every match of ``rule`` once; returns how many changed the graph."""
    return sum(rule.apply_match_checked(egraph, match)[0] for match in _matches(rule, egraph))


def search(egraph, pattern):
    """``(class id, substitution)`` of every match of the pattern text."""
    return [(m.class_id, m.substitution) for m in _matches(rewrite("p", pattern, pattern), egraph)]


class TestPatternParsing:
    def test_variable(self):
        pattern = parse_pattern("?x")
        assert pattern.is_var
        assert pattern == Pattern(PatternVar("x"))

    def test_concrete(self):
        pattern = parse_pattern("(Union Cube ?x)")
        assert not pattern.is_var
        assert pattern.children == (Pattern("Cube"), Pattern(PatternVar("x")))


class TestEMatching:
    def test_simple_match(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        matches = search(egraph, "(Union ?a ?b)")
        assert len(matches) == 1
        class_id, substitution = matches[0]
        assert egraph.find(class_id) == egraph.find(root)
        assert egraph.nodes(substitution["a"])[0].op == "Cube"

    def test_nonlinear_pattern_requires_same_class(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Sphere)"))
        egraph.add_term(Term.parse("(Union Cube Cube)"))
        matches = search(egraph, "(Union ?a ?a)")
        assert len(matches) == 1

    def test_match_across_equivalent_nodes(self):
        egraph = EGraph()
        a = egraph.add_term(Term.parse("(F A)"))
        b = egraph.add_leaf("B")
        egraph.merge(a, b)
        egraph.rebuild()
        # B's class also contains (F A) now, so the pattern matches it.
        matches = search(egraph, "(F ?x)")
        assert len(matches) == 1

    def test_nested_pattern(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union (Translate 1 2 3 Cube) (Translate 1 2 3 Sphere))"))
        matches = search(egraph, "(Union (Translate ?x ?y ?z ?a) (Translate ?x ?y ?z ?b))")
        assert len(matches) == 1

    def test_mismatched_vectors_do_not_match(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union (Translate 1 2 3 Cube) (Translate 9 2 3 Sphere))"))
        assert search(egraph, "(Union (Translate ?x ?y ?z ?a) (Translate ?x ?y ?z ?b))") == []

    def test_leaf_in_a_pattern_must_be_in_the_bound_class(self):
        egraph = EGraph()
        with_empty = egraph.add_term(Term.parse("(Union Cube Empty)"))
        with_sphere = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        assert [cid for cid, _ in search(egraph, "(Union ?x Empty)")] == [with_empty]
        # Once Sphere's class also holds Empty, the leaf check passes there too.
        egraph.merge(egraph.lookup_term(Term("Sphere")), egraph.lookup_term(Term("Empty")))
        egraph.rebuild()
        found = {egraph.find(cid) for cid, _ in search(egraph, "(Union ?x Empty)")}
        assert found == {egraph.find(with_empty), egraph.find(with_sphere)}

    def test_bare_variable_root_matches_every_class_once(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube (Scale 2 Cube))"))
        egraph.merge(egraph.lookup_term(Term("Cube")), egraph.lookup_term(Term.num(2)))
        egraph.rebuild()
        matches = search(egraph, "?x")
        classes = sorted(egraph.find(eclass.id) for eclass in egraph.classes())
        assert [cid for cid, _ in matches] == classes
        assert all(sub == {"x": cid} for cid, sub in matches)

    def test_instantiate_adds_term(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Sphere)"))
        matches = search(egraph, "(Union ?a ?b)")
        _, substitution = matches[0]
        new_id = instantiate(egraph, parse_pattern("(Inter ?b ?a)"), substitution)
        assert egraph.lookup_term(Term.parse("(Inter Sphere Cube)")) == egraph.find(new_id)

    def test_instantiate_repeated_variable(self):
        egraph = EGraph()
        cube = egraph.add_leaf("Cube")
        new_id = instantiate(egraph, parse_pattern("(Union ?a ?a)"), {"a": cube})
        assert egraph.lookup_term(Term.parse("(Union Cube Cube)")) == egraph.find(new_id)

    def test_instantiate_unbound_raises(self):
        egraph = EGraph()
        cube = egraph.add_leaf("Cube")
        with pytest.raises(KeyError, match=r"\?b"):
            instantiate(egraph, parse_pattern("(Union ?a ?b)"), {"a": cube})


class TestRewrites:
    def test_syntactic_rewrite_merges(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Empty)"))
        rule = rewrite("union-empty", "(Union ?x Empty)", "?x")
        assert _fire(rule, egraph) == 1
        egraph.rebuild()
        assert egraph.is_equal(root, egraph.lookup_term(Term("Cube")))

    def test_rewrite_is_nondestructive(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Empty)"))
        _fire(rewrite("union-empty", "(Union ?x Empty)", "?x"), egraph)
        egraph.rebuild()
        ops = {node.op for node in egraph.nodes(root)}
        assert "Union" in ops and "Cube" in ops

    def test_dynamic_rewrite(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Add 1 2)"))

        def applier(eg, class_id, substitution):
            values = []
            for name in ("a", "b"):
                for node in eg.nodes(substitution[name]):
                    if isinstance(node.op, (int, float)):
                        values.append(node.op)
            return eg.add_enode(ENode(float(sum(values))))

        rule = dynamic_rewrite("const-fold", "(Add ?a ?b)", applier)
        assert _fire(rule, egraph) == 1
        egraph.rebuild()
        assert egraph.is_equal(root, egraph.lookup_term(Term.num(3.0)))

    def test_dynamic_rewrite_returning_none_is_noop(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Add 1 2)"))
        rule = dynamic_rewrite("skip", "(Add ?a ?b)", lambda eg, cid, sub: None)
        assert _fire(rule, egraph) == 0

    def test_applier_condition_blocks_only_the_matches_it_rejects(self):
        # A rule's side condition lives in its applier: declined matches
        # neither change the graph nor count as executed (so the runner
        # never ledgers them), accepted ones fire.
        egraph = EGraph()
        kept = egraph.add_term(Term.parse("(Union Cube Empty)"))
        merged = egraph.add_term(Term.parse("(Union Sphere Empty)"))
        cube_class = egraph.lookup_term(Term("Cube"))

        def unless_cube(eg, _class_id, sub):
            return None if eg.find(sub["x"]) == eg.find(cube_class) else sub["x"]

        rule = dynamic_rewrite("drop-empty-unless-cube", "(Union ?x Empty)", unless_cube)
        outcomes = {
            egraph.find(match.class_id): rule.apply_match_checked(egraph, match)
            for match in _matches(rule, egraph)
        }
        assert outcomes == {kept: (False, False), merged: (True, True)}
        egraph.rebuild()
        assert not egraph.is_equal(kept, cube_class)
        assert egraph.is_equal(merged, egraph.lookup_term(Term("Sphere")))

    def test_rhs_variable_unbound_by_lhs_raises(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Scale 2 Cube)"))
        rule = rewrite("drop", "(Scale 2 ?x)", "(Union ?x ?y)")
        (match,) = _matches(rule, egraph)
        with pytest.raises(KeyError, match=r"\?y"):
            rule.apply_match_checked(egraph, match)

    def test_rewrite_fires_left_to_right_only(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union A (Union B C))"))
        rule = rewrite("assoc", "(Union (Union ?a ?b) ?c)", "(Union ?a (Union ?b ?c))")
        assert _matches(rule, egraph) == []
        _fire(rule, egraph)
        egraph.rebuild()
        assert egraph.lookup_term(Term.parse("(Union (Union A B) C)")) is None


class TestRulePairs:
    """An equation needed in both directions is written as two one-way rules."""

    ASSOC = ("assoc", "(Union (Union ?a ?b) ?c)", "(Union ?a (Union ?b ?c))")
    ASSOC_REV = ("assoc-rev", "(Union ?a (Union ?b ?c))", "(Union (Union ?a ?b) ?c)")

    def test_reverse_rule_builds_the_left_form(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union A (Union B C))"))
        assert _fire(rewrite(*self.ASSOC_REV), egraph) >= 1
        egraph.rebuild()
        left = egraph.lookup_term(Term.parse("(Union (Union A B) C)"))
        assert left is not None
        assert egraph.is_equal(root, left)

    def test_both_directions_reachable_from_either_form(self):
        right = Term.parse("(Union A (Union B C))")
        left = Term.parse("(Union (Union A B) C)")
        for start in (right, left):
            egraph = EGraph()
            root = egraph.add_term(start)
            Runner([rewrite(*self.ASSOC), rewrite(*self.ASSOC_REV)]).run(egraph)
            for form in (right, left):
                found = egraph.lookup_term(form)
                assert found is not None, f"{form} unreachable from {start}"
                assert egraph.is_equal(root, found)


class TestRunner:
    def test_saturation(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union (Union Cube Empty) Empty)"))
        runner = Runner([rewrite("union-empty", "(Union ?x Empty)", "?x")])
        report = runner.run(egraph)
        assert report.stop_reason == StopReason.SATURATED
        assert report.iteration_count >= 2

    def test_iteration_limit(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union (Union Cube Empty) Empty)"))
        # Saturation needs at least two iterations; cap the runner at one.
        runner = Runner(
            [rewrite("union-empty", "(Union ?x Empty)", "?x")],
            RunnerLimits(max_iterations=1, max_enodes=10_000, max_seconds=10.0),
        )
        report = runner.run(egraph)
        assert report.stop_reason == StopReason.ITERATION_LIMIT
        assert report.iteration_count == 1

    def test_firings_recorded(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Empty)"))
        runner = Runner([rewrite("union-empty", "(Union ?x Empty)", "?x")])
        report = runner.run(egraph)
        assert report.total_firings >= 1
        assert "union-empty" in report.iterations[0].firings

    def test_matches_and_phase_timings_recorded(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Empty)"))
        report = Runner([rewrite("union-empty", "(Union ?x Empty)", "?x")]).run(egraph)
        first = report.iterations[0]
        assert first.matches["union-empty"] >= 1
        assert first.search_seconds >= 0.0
        assert first.apply_seconds >= 0.0
        assert first.rebuild_seconds >= 0.0


def _union_chain(leaves):
    """(Union A (Union B (Union C ...))) over single-letter leaves."""
    term = Term(leaves[-1])
    for leaf in reversed(leaves[:-1]):
        term = Term("Union", (Term(leaf), term))
    return term


class TestRunnerInLoopLimits:
    EXPANSIVE = [
        rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)"),
        rewrite("union-assoc", "(Union (Union ?a ?b) ?c)", "(Union ?a (Union ?b ?c))"),
    ]

    def test_node_limit_enforced_between_applications(self):
        egraph = EGraph()
        egraph.add_term(_union_chain("ABCDEFGH"))
        limit = 30
        runner = Runner(
            self.EXPANSIVE,
            RunnerLimits(max_iterations=50, max_enodes=limit, max_seconds=30.0),
        )
        report = runner.run(egraph)
        assert report.stop_reason == StopReason.NODE_LIMIT
        # The budget is checked before every application, so the overshoot is
        # bounded by what a single match can add — not by a whole iteration
        # of unbounded firing (the seed behavior).
        assert egraph.total_enodes <= limit + 10

    def test_time_limit_enforced_between_applications(self):
        egraph = EGraph()
        egraph.add_term(_union_chain("ABCD"))
        runner = Runner(
            self.EXPANSIVE,
            RunnerLimits(max_iterations=50, max_enodes=10_000, max_seconds=0.0),
        )
        report = runner.run(egraph)
        assert report.stop_reason == StopReason.TIME_LIMIT
        # The zero budget was already exhausted before the first application.
        assert report.total_firings == 0


class TestBackoffScheduler:
    def test_explosive_rule_is_banned_and_recovers(self):
        scheduler = BackoffScheduler(BackoffConfig(match_limit=3, ban_length=2))
        assert scheduler.record_search("r", 3, iteration=0)  # at threshold: ok
        assert not scheduler.record_search("r", 4, iteration=1)  # over: banned
        assert scheduler.is_banned("r", 2)
        assert scheduler.is_banned("r", 3)
        assert not scheduler.is_banned("r", 4)
        # Threshold doubled after the first offence.
        assert scheduler.record_search("r", 6, iteration=4)
        assert not scheduler.record_search("r", 7, iteration=5)
        # Ban length doubled too: banned for 4 iterations now.
        assert scheduler.is_banned("r", 9)
        assert not scheduler.is_banned("r", 10)

    def test_runner_drops_matches_of_banned_rule(self):
        egraph = EGraph()
        egraph.add_term(_union_chain("ABCDEFGH"))  # 7 Union classes
        rule = rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)")
        runner = Runner(
            [rule],
            RunnerLimits(max_iterations=3, max_enodes=10_000, max_seconds=10.0),
            backoff=BackoffConfig(match_limit=3, ban_length=5),
        )
        report = runner.run(egraph)
        first = report.iterations[0]
        assert first.matches["union-comm"] == 7
        assert "union-comm" in first.banned
        assert report.total_firings == 0
        # While a rule is banned the run must not report saturation, and the
        # wait is fast-forwarded: the ban outlives max_iterations, so the
        # report holds just the one iteration that issued it.
        assert report.stop_reason == StopReason.ITERATION_LIMIT
        assert len(report.iterations) == 1

    def test_ban_expiring_next_iteration_defers_saturation(self):
        # A rule banned at iteration 0 whose ban expires at iteration 2 must
        # not let iteration 1 (nothing changed, rule still banned) report
        # saturation: the rule gets its hearing once the ban lapses.
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union (Union A B) C)"))  # 2 Union classes
        rule = rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)")
        runner = Runner(
            [rule],
            RunnerLimits(max_iterations=10, max_enodes=10_000, max_seconds=10.0),
            backoff=BackoffConfig(match_limit=1, ban_length=1),
        )
        report = runner.run(egraph)
        # Iteration 0 banned the rule (2 matches > 1); after the ban lapsed
        # the doubled threshold let it fire.
        assert "union-comm" in report.iterations[0].banned
        assert report.total_firings >= 2
        assert egraph.lookup_term(Term.parse("(Union C (Union A B))")) is not None

    def test_unbanned_rule_saturates_normally(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union (Union Cube Empty) Empty)"))
        runner = Runner(
            [rewrite("union-empty", "(Union ?x Empty)", "?x")],
            backoff=BackoffConfig(match_limit=1_000, ban_length=5),
        )
        report = runner.run(egraph)
        assert report.stop_reason == StopReason.SATURATED

    def test_ban_wait_fast_forwards_instead_of_respinning(self):
        # With the only rule banned and the graph unchanged, the runner must
        # jump straight to the ban expiry instead of re-searching the same
        # graph every iteration (report indices skip the waited-out window).
        egraph = EGraph()
        egraph.add_term(_union_chain("ABCDEFGH"))
        runner = Runner(
            [rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)")],
            RunnerLimits(max_iterations=30, max_enodes=10_000, max_seconds=10.0),
            backoff=BackoffConfig(match_limit=3, ban_length=5),
        )
        report = runner.run(egraph)
        assert report.iterations[0].banned == ["union-comm"]
        # Banned at iteration 0 for 5 iterations -> next report is iteration 6.
        assert report.iterations[1].index == 6
        assert len(report.iterations) < 30

    def test_time_limit_applies_while_waiting_out_a_ban(self):
        egraph = EGraph()
        egraph.add_term(_union_chain("ABCDEFGH"))
        runner = Runner(
            [rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)")],
            RunnerLimits(max_iterations=30, max_enodes=10_000, max_seconds=0.0),
            backoff=BackoffConfig(match_limit=3, ban_length=5),
        )
        report = runner.run(egraph)
        # The only rule was banned so no match ever applied; the time budget
        # must still be honored rather than burning all 30 iterations.
        assert report.stop_reason == StopReason.TIME_LIMIT

    def test_runner_reuse_does_not_inherit_ban_state(self):
        rule = rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)")
        runner = Runner(
            [rule],
            RunnerLimits(max_iterations=5, max_enodes=10_000, max_seconds=10.0),
            backoff=BackoffConfig(match_limit=3, ban_length=50),
        )
        first = EGraph()
        first.add_term(_union_chain("ABCDEFGH"))
        report = runner.run(first)
        assert report.total_firings == 0  # banned for the whole first run
        # A second run on a small graph starts with a fresh scheduler: the
        # rule fires and the run saturates instead of sitting out a stale ban.
        second = EGraph()
        second.add_term(Term.parse("(Union A B)"))
        report = runner.run(second)
        assert report.total_firings >= 1
        assert report.stop_reason == StopReason.SATURATED


class TestExtraction:
    def test_extractor_picks_smaller_variant(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Empty)"))
        _fire(rewrite("union-empty", "(Union ?x Empty)", "?x"), egraph)
        egraph.rebuild()
        assert Extractor(egraph).extract(root) == Term("Cube")

    def test_extractor_cost(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        assert Extractor(egraph).cost_of(root) == 3.0

    def test_top_k_orders_by_cost(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union (Scale 2 2 2 Cube) Empty)"))
        _fire(rewrite("union-empty", "(Union ?x Empty)", "?x"), egraph)
        egraph.rebuild()
        entries = TopKExtractor(egraph, ast_size_cost, k=3).extract_top_k(root)
        assert entries[0].term == Term.parse("(Scale 2 2 2 Cube)")
        assert [e.cost for e in entries] == sorted(e.cost for e in entries)
        # Re-wrapped variants — (Union (Union ... Empty) Empty) and deeper —
        # revisit the root class on a path, so the realizable stream stops
        # at the single acyclic derivation.
        assert len(entries) == 1
        # The alternative the class genuinely offers at its root is still
        # reachable through the per-enode view.
        per_enode = TopKExtractor(egraph, ast_size_cost, k=3).best_per_enode(root)
        assert {e.term for e in per_enode} == {
            Term.parse("(Scale 2 2 2 Cube)"),
            Term.parse("(Union (Scale 2 2 2 Cube) Empty)"),
        }

    def test_top_k_distinct_terms(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        entries = TopKExtractor(egraph, ast_size_cost, k=5).extract_top_k(root)
        assert len({entry.term for entry in entries}) == len(entries)

    def test_top_k_respects_roots_restriction(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        egraph.add_term(Term.parse("(Inter A B)"))  # unreachable from root
        extractor = TopKExtractor(egraph, ast_size_cost, k=2)
        assert extractor.extract_top_k(root)[0].term == Term.parse("(Union Cube Sphere)")

    def test_extraction_with_cycle(self):
        # x = Union(x, x) cycle: extraction must still terminate and return x.
        egraph = EGraph()
        x = egraph.add_leaf("X")
        union = egraph.add_enode(ENode("Union", (x, x)))
        egraph.merge(union, x)
        egraph.rebuild()
        assert Extractor(egraph).extract(x) == Term("X")
