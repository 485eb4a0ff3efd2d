"""Unit tests for the translation-validation layer."""

import random

import pytest

from repro.benchsuite import models
from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.cad.build import fold_union, fun, mapi, repeat, translate_expr, mul, add
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.csg.build import (
    cube, cylinder, diff, empty, inter, rotate, scale, sphere, translate, union, union_all, unit,
)
from repro.lang.term import Term
from repro.obs.trace import Tracer
from repro.verify import geometric
from repro.verify.geometric import geometrically_equivalent, occupancy_agreement
from repro.verify.structural import (
    UnsupportedTerm,
    equivalent_modulo_reordering,
    leaf_matrix_equivalent,
    leaf_normal_form,
    terms_equal_modulo_epsilon,
)
from repro.verify.validate import validate_synthesis


class TestStructuralEquivalence:
    def test_exact_equality(self):
        a = union(cube(), sphere())
        assert terms_equal_modulo_epsilon(a, a)

    def test_epsilon_on_numbers(self):
        a = translate(1.0, 2.0, 3.0, cube())
        b = translate(1.0000004, 2.0, 3.0, cube())
        assert terms_equal_modulo_epsilon(a, b, epsilon=1e-6)
        assert not terms_equal_modulo_epsilon(a, b, epsilon=1e-9)

    def test_different_shape_rejected(self):
        assert not terms_equal_modulo_epsilon(union(cube(), sphere()), cube())

    def test_reordering_accepted_for_union(self):
        a = union_all([translate(float(i), 0, 0, cube()) for i in range(4)])
        b = union_all([translate(float(i), 0, 0, cube()) for i in reversed(range(4))])
        assert not terms_equal_modulo_epsilon(a, b)
        assert equivalent_modulo_reordering(a, b)

    def test_reordering_respects_multiplicity(self):
        a = union(cube(), union(cube(), sphere()))
        b = union(cube(), union(sphere(), sphere()))
        assert not equivalent_modulo_reordering(a, b)

    def test_diff_sides_not_swappable(self):
        a = diff(cube(), sphere())
        b = diff(sphere(), cube())
        assert not equivalent_modulo_reordering(a, b)

    def test_reassociation_accepted(self):
        a = union(union(cube(), sphere()), cylinder())
        b = union(cube(), union(sphere(), cylinder()))
        assert equivalent_modulo_reordering(a, b)


class TestGeometricEquivalence:
    def test_identical_solids(self):
        term = diff(scale(4, 4, 4, cube()), sphere())
        assert geometrically_equivalent(term, term, resolution=12)

    def test_collapsed_transform_equivalent(self):
        a = translate(1, 2, 3, translate(4, 5, 6, cube()))
        b = translate(5, 7, 9, cube())
        assert geometrically_equivalent(a, b, resolution=12)

    def test_different_solids_rejected(self):
        a = scale(4, 4, 4, cube())
        b = scale(2, 2, 2, cube())
        assert not geometrically_equivalent(a, b, resolution=12)

    def test_report_fields(self):
        report = occupancy_agreement(cube(), cube(), resolution=8)
        assert report.agreement == 1.0
        assert report.hausdorff == pytest.approx(0.0, abs=1e-6)
        assert report.points_a == report.points_b > 0


class TestValidateSynthesis:
    def test_valid_structured_program(self):
        flat = union_all([translate(2.0 * (i + 1), 0, 0, cube()) for i in range(5)])
        program = fold_union(
            mapi(
                fun(("i", "c"), translate_expr(mul(2.0, add(Term("i"), 1)), 0, 0, Term("c"))),
                repeat(cube(), 5),
            )
        )
        result = validate_synthesis(flat, program)
        assert result.valid
        assert result.exact_match or result.reorder_match

    def test_wrong_count_detected(self):
        flat = union_all([translate(2.0 * (i + 1), 0, 0, cube()) for i in range(5)])
        wrong = fold_union(
            mapi(
                fun(("i", "c"), translate_expr(mul(2.0, add(Term("i"), 1)), 0, 0, Term("c"))),
                repeat(cube(), 4),
            )
        )
        result = validate_synthesis(flat, wrong)
        assert not result.valid

    def test_wrong_function_detected(self):
        flat = union_all([translate(2.0 * (i + 1), 0, 0, cube()) for i in range(5)])
        wrong = fold_union(
            mapi(
                fun(("i", "c"), translate_expr(mul(3.0, add(Term("i"), 1)), 0, 0, Term("c"))),
                repeat(cube(), 5),
            )
        )
        result = validate_synthesis(flat, wrong)
        assert not result.valid

    def test_unrollable_error_reported(self):
        flat = cube()
        bogus = Term("Fold", (Term.num(3), Term("Empty"), Term("Nil")))
        result = validate_synthesis(flat, bogus)
        assert not result.valid
        assert result.error is not None

    def test_identity_program(self):
        flat = diff(scale(4, 4, 4, cube()), rotate(0, 0, 30, cube()))
        result = validate_synthesis(flat, flat)
        assert result.valid and result.exact_match


class TestLeafMatrixNormalForm:
    def test_scale_over_translate_matches_the_reordered_spelling(self):
        a = scale(2, 2, 2, translate(1, 0, 0, cube()))
        b = translate(2, 0, 0, scale(2, 2, 2, cube()))
        assert not equivalent_modulo_reordering(a, b)
        assert leaf_matrix_equivalent(a, b)
        assert not leaf_matrix_equivalent(a, translate(1, 0, 0, scale(2, 2, 2, cube())))

    def test_affine_layer_lifted_over_a_union(self):
        a = translate(5, 0, 0, rotate(0, 0, 90, union(cube(), translate(1, 0, 0, sphere()))))
        b = union(
            translate(5, 1, 0, rotate(0, 0, 90, sphere())),
            translate(5, 0, 0, rotate(0, 0, 90, cube())),
        )
        assert leaf_matrix_equivalent(a, b)
        assert not leaf_matrix_equivalent(a, union(translate(5, 0, 0, cube()), sphere()))

    def test_union_and_inter_are_idempotent(self):
        x = translate(1, 2, 3, cylinder())
        assert leaf_matrix_equivalent(union(x, x), x)
        assert leaf_matrix_equivalent(inter(x, inter(x, x)), x)
        assert leaf_matrix_equivalent(union(x, union(sphere(), x)), union(sphere(), x))
        assert not leaf_matrix_equivalent(union(x, sphere()), x)

    def test_empty_identities(self):
        x = translate(1, 0, 0, cube())
        assert leaf_matrix_equivalent(diff(empty(), x), empty())
        assert leaf_matrix_equivalent(diff(x, empty()), x)
        assert leaf_matrix_equivalent(union(empty(), x), x)
        assert leaf_matrix_equivalent(inter(x, empty()), empty())
        assert not leaf_matrix_equivalent(diff(x, sphere()), empty())
        assert not leaf_matrix_equivalent(diff(x, sphere()), x)

    def test_diff_sides_not_swappable(self):
        assert not leaf_matrix_equivalent(diff(cube(), sphere()), diff(sphere(), cube()))

    def test_singular_scale_is_compared_structurally(self):
        # Flattening x away makes the translated cube cover the other one,
        # so the projection of a difference is not the difference of the
        # projections: nothing is pushed through a singular Scale.
        solid = diff(cube(), translate(2, 0, 0, cube()))
        projected = scale(0, 1, 1, solid)
        pushed = diff(scale(0, 1, 1, cube()), scale(0, 1, 1, translate(2, 0, 0, cube())))
        assert leaf_matrix_equivalent(projected, projected)
        assert not leaf_matrix_equivalent(projected, pushed)
        # Under its matrix the child still compares modulo operand order ...
        assert leaf_matrix_equivalent(
            translate(1, 0, 0, scale(0, 1, 1, union(cube(), sphere()))),
            translate(1, 0, 0, scale(0, 1, 1, union(sphere(), cube()))),
        )
        # ... and a layer above the singular Scale is not one below it.
        assert not leaf_matrix_equivalent(
            translate(1, 0, 0, scale(0, 1, 1, cube())),
            scale(0, 1, 1, translate(1, 0, 0, cube())),
        )

    def test_unit_is_cube(self):
        assert leaf_matrix_equivalent(translate(1, 0, 0, unit()), translate(1, 0, 0, cube()))
        assert not leaf_matrix_equivalent(unit(), sphere())

    def test_entries_within_epsilon_in_absolute_terms(self):
        a = translate(1000, 0, 0, cube())
        assert leaf_matrix_equivalent(a, translate(1000.0009, 0, 0, cube()), epsilon=1e-3)
        assert not leaf_matrix_equivalent(a, translate(1000.0011, 0, 0, cube()), epsilon=1e-3)

    def test_operand_sets_match_in_any_order_within_epsilon(self):
        rng = random.Random(3)
        parts = [
            translate(rng.uniform(-50, 50), rng.uniform(-50, 50), 0, cube()) for _ in range(300)
        ]
        nudged = [
            translate(p.children[0].value + rng.uniform(-9e-4, 9e-4), p.children[1].value, 0, cube())
            for p in parts
        ]
        rng.shuffle(nudged)
        assert leaf_matrix_equivalent(union_all(parts), union_all(nudged), epsilon=1e-3)
        nudged[0] = translate(nudged[0].children[0].value + 2e-3, nudged[0].children[1].value, 0, cube())
        assert not leaf_matrix_equivalent(union_all(parts), union_all(nudged), epsilon=1e-3)

    def test_terms_outside_flat_csg_have_no_normal_form(self):
        with pytest.raises(UnsupportedTerm):
            leaf_normal_form(translate_expr(Term("i"), 0, 0, cube()))
        with pytest.raises(UnsupportedTerm):
            leaf_normal_form(Term("Union"))
        assert not leaf_matrix_equivalent(fold_union(repeat(cube(), 2)), union(cube(), cube()))


class TestDeepUnions:
    def test_two_thousand_element_union_validates_against_itself(self):
        flat = models.linear_array(2000, (3, 0, 0), cube())
        result = validate_synthesis(flat, flat)
        assert result.valid and result.exact_match

    def test_reversed_long_union_matches_by_leaf_matrix(self):
        parts = [translate(3 * i, 0, 0, cube()) for i in range(2000)]
        assert leaf_matrix_equivalent(union_all(parts), union_all(parts[::-1]))
        assert leaf_matrix_equivalent(
            inter(sphere(), union_all(parts)), inter(union_all(parts[::-1]), sphere())
        )


# -- validation against mutated Table 1 inputs -----------------------------------

#: The tolerance ``validate_synthesis`` compares with by default.
EPSILON = 1e-3


def _replace_first(term, replace):
    """``term`` with its first subterm in preorder that ``replace`` maps to a
    term replaced; None when there is no such subterm."""
    replacement = replace(term)
    if replacement is not None:
        return replacement
    for index, child in enumerate(term.children):
        changed = _replace_first(child, replace)
        if changed is not None:
            children = term.children[:index] + (changed,) + term.children[index + 1:]
            return Term(term.op, children)
    return None


def _move_literal(delta):
    def replace(term):
        if term.op in ("Translate", "Scale", "Rotate") and len(term.children) == 4:
            first = term.children[0]
            return Term(term.op, (Term.num(first.value + delta),) + term.children[1:])
        return None

    return replace


def _drop_union_operand(term):
    return term.children[1] if term.op == "Union" else None


def _swap_diff_sides(term):
    return Term("Diff", term.children[::-1]) if term.op == "Diff" else None


MUTATIONS = {
    "first affine literal +10 epsilon": _move_literal(10 * EPSILON),
    "first affine literal +0.5": _move_literal(0.5),
    "first Union replaced by its second operand": _drop_union_operand,
    "first Diff with its sides swapped": _swap_diff_sides,
}


def _mutants(flat):
    found = {kind: _replace_first(flat, replace) for kind, replace in MUTATIONS.items()}
    return {kind: mutant for kind, mutant in found.items() if mutant is not None}


@pytest.fixture(scope="module")
def rank_one():
    """The rank-1 candidate of a Table 1 model, synthesized once per module."""
    programs = {}

    def program(name):
        if name not in programs:
            benchmark = get_benchmark(name)
            config = SynthesisConfig(cost_function=benchmark.cost_function)
            programs[name] = synthesize(benchmark.build(), config).candidates[0].term
        return programs[name]

    return program


class TestTable1Mutants:
    def test_four_kinds_of_mutant_per_model_with_a_diff(self):
        counts = [len(_mutants(benchmark.build())) for benchmark in BENCHMARKS]
        assert sum(counts) == 59
        assert set(counts) == {3, 4}

    @pytest.mark.parametrize("name", [benchmark.name for benchmark in BENCHMARKS])
    def test_rank_one_validates_and_every_mutant_is_rejected(self, name, rank_one):
        flat, program = get_benchmark(name).build(), rank_one(name)
        assert validate_synthesis(flat, program).valid
        for kind, mutant in _mutants(flat).items():
            result = validate_synthesis(mutant, program)
            assert not result.valid, f"{name}: {kind} accepted by the {result.check} check"


class TestValidationChecks:
    def test_default_validation_never_samples_the_grid(self, monkeypatch, rank_one):
        def refuse(*args, **kwargs):
            raise AssertionError("the occupancy grid was sampled")

        monkeypatch.setattr(geometric, "occupancy_agreement", refuse)
        result = validate_synthesis(get_benchmark("hc-bits").build(), rank_one("hc-bits"))
        assert result.valid and result.check == "leaf"

    def test_the_grid_is_a_diagnostic_outside_valid(self):
        flat = translate(0.01, 0, 0, cube())
        assert occupancy_agreement(flat, cube(), resolution=8).equivalent()
        result = validate_synthesis(flat, cube())
        assert not result.valid and result.check == "none"

    def test_validate_span_names_the_accepting_check(self):
        tracer = Tracer()
        flat = scale(2, 2, 2, translate(1, 0, 0, cube()))
        result = validate_synthesis(flat, translate(2, 0, 0, scale(2, 2, 2, cube())), tracer=tracer)
        assert result.check == "leaf" and result.leaves_compared == 1
        (span,) = [s for s in tracer.finished if s.name == "validate"]
        assert span.attrs == {"valid": True, "check": "leaf", "leaves": 1}

    def test_exact_and_reorder_checks_come_first(self):
        a = union_all([translate(float(i), 0, 0, cube()) for i in range(4)])
        b = union_all([translate(float(i), 0, 0, cube()) for i in reversed(range(4))])
        assert validate_synthesis(a, a).check == "exact"
        reordered = validate_synthesis(a, b)
        assert reordered.check == "reorder" and reordered.leaves_compared == 0
