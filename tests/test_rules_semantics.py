"""Semantics-preservation tests for the rewrite-rule database.

The paper derives its affine reordering/collapsing rules geometrically and
checks them with a computer algebra system.  Here every rule is checked
numerically instead: a rule is applied to a concrete term inside an e-graph
and the new equivalent program must denote the same solid as the original,
point for point, on a sampling grid.  This doubles as an integration test of
the e-graph, the rewrite engine, and the geometric evaluator.
"""

import pytest

from repro.core.rules import all_rules, default_rules, rules_by_category
from repro.csg.build import (
    cube,
    cylinder,
    diff,
    inter,
    rotate,
    scale,
    sphere,
    translate,
    union,
)
from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor, ast_size_cost
from repro.egraph.runner import Runner, RunnerLimits
from repro.geometry.membership import compile_csg
from repro.geometry.sampling import joint_bounding_box, sample_grid
from repro.lang.term import Term
from repro.cad.evaluator import unroll
from repro.csg.validate import is_flat_csg
from repro.verify.geometric import occupancy_agreement


def _all_flat_variants(term, categories):
    """Apply one category of rules to saturation and return all extractable
    flat-CSG variants of the root class."""
    egraph = EGraph()
    root = egraph.add_term(term)
    Runner(default_rules(categories), RunnerLimits(max_iterations=8)).run(egraph)
    variants = []
    seen = set()
    for enode in egraph.nodes(root):
        extractor = Extractor(egraph, ast_size_cost)
        candidate = Term(enode.op, tuple(extractor.extract(a) for a in enode.args))
        if candidate in seen:
            continue
        seen.add(candidate)
        variants.append(candidate)
    return variants


def _assert_geometrically_equal(a, b, resolution=14):
    report = occupancy_agreement(a, b, resolution=resolution)
    assert report.agreement >= 0.995, f"{a} vs {b}: agreement {report.agreement}"


class TestRuleDatabase:
    def test_rule_count_at_least_forty(self):
        # The paper describes ~40 semantics-preserving rewrites.
        assert len(all_rules()) >= 40

    def test_categories_present(self):
        categories = rules_by_category()
        for name in (
            "affine-lifting",
            "affine-reordering",
            "affine-collapsing",
            "folds",
            "boolean",
            "boolean-expansive",
        ):
            assert name in categories and categories[name]

    def test_default_excludes_expansive(self):
        names = {rule.name for rule in default_rules()}
        assert "union-comm" not in names

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            default_rules(["no-such-category"])


class TestAffineLifting:
    CASES = [
        union(translate(1, 2, 3, cube()), translate(1, 2, 3, sphere())),
        diff(rotate(0, 0, 30, cube()), rotate(0, 0, 30, sphere())),
        inter(scale(2, 2, 2, cube()), scale(2, 2, 2, cylinder())),
    ]

    @pytest.mark.parametrize("term", CASES)
    def test_lifting_preserves_geometry(self, term):
        variants = _all_flat_variants(term, ["affine-lifting"])
        assert len(variants) >= 2  # the lifted variant was added
        for variant in variants:
            _assert_geometrically_equal(term, variant)

    def test_lifting_requires_equal_vectors(self):
        term = union(translate(1, 2, 3, cube()), translate(9, 2, 3, sphere()))
        variants = _all_flat_variants(term, ["affine-lifting"])
        assert len(variants) == 1  # nothing fired


class TestAffineReordering:
    CASES = [
        scale(2, 2, 2, rotate(10, 20, 30, cube())),          # uniform scale / rotate
        scale(2, 3, 4, translate(1, 2, 3, cube())),           # scale over translate
        translate(4, 5, 6, scale(2, 3, 4, cube())),           # translate over scale
        rotate(0, 0, 37, translate(5, 1, 2, cube())),         # z-rotation over translate
        translate(5, 1, 2, rotate(0, 0, 37, cube())),
        rotate(0, 41, 0, translate(5, 1, 2, cube())),         # y-rotation over translate
        translate(5, 1, 2, rotate(0, 41, 0, cube())),
        rotate(23, 0, 0, translate(5, 1, 2, cube())),         # x-rotation over translate
        translate(5, 1, 2, rotate(23, 0, 0, cube())),
    ]

    @pytest.mark.parametrize("term", CASES)
    def test_reordering_preserves_geometry(self, term):
        variants = _all_flat_variants(term, ["affine-reordering"])
        assert len(variants) >= 2
        for variant in variants:
            _assert_geometrically_equal(term, variant)

    def test_translate_over_zero_scale_does_not_fire(self):
        term = translate(1, 2, 3, scale(0, 1, 1, cube()))
        # Must not crash (division by zero guard) and must keep the original.
        variants = _all_flat_variants(term, ["affine-reordering"])
        assert term in variants


class TestAffineCollapsing:
    CASES = [
        translate(1, 2, 3, translate(4, 5, 6, cube())),
        scale(2, 2, 2, scale(3, 1, 0.5, cube())),
        rotate(0, 0, 30, rotate(0, 0, 45, cube())),
        rotate(0, 25, 0, rotate(0, 30, 0, cube())),
        rotate(15, 0, 0, rotate(30, 0, 0, cube())),
    ]

    @pytest.mark.parametrize("term", CASES)
    def test_collapsing_preserves_geometry(self, term):
        variants = _all_flat_variants(term, ["affine-collapsing"])
        assert len(variants) >= 2
        for variant in variants:
            _assert_geometrically_equal(term, variant)

    def test_collapsed_variant_is_smaller(self):
        term = translate(1, 2, 3, translate(4, 5, 6, cube()))
        egraph = EGraph()
        root = egraph.add_term(term)
        Runner(default_rules(["affine-collapsing"])).run(egraph)
        best = Extractor(egraph, ast_size_cost).extract(root)
        assert best.size() < term.size()
        assert best == translate(5, 7, 9, cube())


class TestFoldRules:
    def test_union_chain_folds_and_unrolls_back(self):
        term = union(cube(), union(translate(2, 0, 0, cube()), translate(4, 0, 0, cube())))
        egraph = EGraph()
        root = egraph.add_term(term)
        Runner(default_rules(["folds"])).run(egraph)
        folded_nodes = [n for n in egraph.nodes(root) if n.op == "Fold"]
        assert folded_nodes, "expected at least one Fold e-node in the root class"
        # Rebuild a concrete folded term and check it unrolls to the original.
        extractor = Extractor(egraph, ast_size_cost)
        for fold_node in folded_nodes:
            folded = Term("Fold", tuple(extractor.extract(a) for a in fold_node.args))
            unrolled = unroll(folded)
            assert is_flat_csg(unrolled)
            _assert_geometrically_equal(term, unrolled)

    def test_boolean_unit_rules(self):
        term = union(cube(), Term("Empty"))
        egraph = EGraph()
        root = egraph.add_term(term)
        Runner(default_rules(["boolean"])).run(egraph)
        assert Extractor(egraph, ast_size_cost).extract(root) == cube()


class TestExpansiveRules:
    def test_commutativity_preserves_geometry(self):
        term = union(cube(), translate(3, 0, 0, sphere()))
        variants = _all_flat_variants(term, ["boolean-expansive"])
        assert union(translate(3, 0, 0, sphere()), cube()) in variants
        for variant in variants:
            _assert_geometrically_equal(term, variant)


#: Finite inputs whose affine arithmetic overflows a float: a fused scale
#: (1e400), a fused translation (2e308) and a commuted translation (1e400).
OVERFLOWING_AFFINE = [
    "(Union (Scale 1e200 1 1 (Scale 1e200 1 1 Cube)) (Translate 1 0 0 Cube))",
    "(Union (Translate 1e308 0 0 (Translate 1e308 0 0 Cube)) (Translate 1 0 0 Cube))",
    "(Scale 1e200 1 1 (Translate 1e200 0 0 Cube))",
]


class TestOverflowingArithmetic:
    """A rewrite whose vector overflows is declined, and adds no node."""

    @pytest.mark.parametrize("text", OVERFLOWING_AFFINE)
    def test_affine_rules_add_nothing_on_overflow(self, text):
        term = Term.parse(text)
        egraph = EGraph()
        root = egraph.add_term(term)
        before = egraph.total_enodes
        Runner(default_rules(["affine-reordering", "affine-collapsing"])).run(egraph)
        assert egraph.total_enodes == before
        assert Extractor(egraph, ast_size_cost).extract(root) == term

    def test_commute_declines_before_adding_its_inner_layer(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Scale 1e200 1 1 (Translate 1e200 0 0 Cube))"))
        Runner(default_rules(["affine-reordering"])).run(egraph)
        assert egraph.lookup_term(Term.parse("(Scale 1e200 1 1 Cube)")) is None

    @pytest.mark.parametrize("text", OVERFLOWING_AFFINE)
    def test_synthesis_returns_candidates_that_validate(self, text):
        from repro.core.pipeline import synthesize
        from repro.verify.validate import validate_synthesis

        term = Term.parse(text)
        result = synthesize(term)
        assert result.candidates
        for candidate in result.candidates:
            assert validate_synthesis(term, candidate.term).valid, candidate.term
