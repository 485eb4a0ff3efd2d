"""Unit tests for the CSG input language: builders, parsing, validation, metrics."""

import pytest

from repro.csg.build import (
    cube,
    cylinder,
    diff,
    empty,
    external,
    hexagon,
    inter,
    rotate,
    scale,
    sphere,
    translate,
    union,
    union_all,
    unit,
)
from repro.csg.metrics import ast_depth, ast_size, measure, primitive_count
from repro.csg.ops import (
    affine_chain,
    affine_child,
    affine_vector,
    is_affine,
    is_boolean,
    is_csg_primitive,
)
from repro.csg.parser import CsgSyntaxError, parse_csg
from repro.csg.pretty import format_openscad_like, format_term, line_count
from repro.csg.validate import CsgValidationError, is_flat_csg, validate_flat_csg
from repro.lang.term import Term


class TestBuilders:
    def test_primitives_are_leaves(self):
        for builder in (cube, cylinder, sphere, hexagon, empty, unit):
            assert builder().is_leaf

    def test_translate_shape(self):
        term = translate(1, 2, 3, cube())
        assert term.op == "Translate"
        assert [c.value for c in term.children[:3]] == [1, 2, 3]
        assert term.children[3] == cube()

    def test_union_all_right_nested(self):
        parts = [translate(float(i), 0, 0, cube()) for i in range(4)]
        term = union_all(parts)
        assert term.op == "Union"
        assert term.children[1].op == "Union"
        assert term.children[1].children[1].op == "Union"

    def test_union_all_empty_and_singleton(self):
        assert union_all([]) == empty()
        assert union_all([cube()]) == cube()

    def test_external(self):
        assert external().op == "External"


class TestOpsHelpers:
    def test_predicates(self):
        assert is_csg_primitive(cube())
        assert is_affine(translate(1, 2, 3, cube()))
        assert is_boolean(union(cube(), sphere()))
        assert not is_affine(cube())
        assert not is_boolean(translate(1, 2, 3, cube()))

    def test_affine_vector_and_child(self):
        term = scale(2, 3, 4, sphere())
        assert affine_vector(term) == (2.0, 3.0, 4.0)
        assert affine_child(term) == sphere()

    def test_affine_vector_rejects_non_affine(self):
        with pytest.raises(ValueError):
            affine_vector(cube())

    def test_affine_chain(self):
        term = translate(1, 0, 0, rotate(0, 0, 45, scale(2, 2, 2, cube())))
        layers, core = affine_chain(term)
        assert [op for op, _v in layers] == ["Translate", "Rotate", "Scale"]
        assert core == cube()

    def test_affine_chain_no_layers(self):
        layers, core = affine_chain(cube())
        assert layers == []
        assert core == cube()


class TestParsingAndPrinting:
    def test_parse_round_trip(self):
        text = "(Diff (Union (Scale 80 80 100 Cylinder) Cube) (Translate 0 0 -1 Sphere))"
        term = parse_csg(text)
        assert parse_csg(format_term(term)) == term

    def test_parse_rejects_unknown_op(self):
        with pytest.raises(CsgSyntaxError):
            parse_csg("(Hull Cube Sphere)")

    def test_parse_rejects_bad_arity(self):
        with pytest.raises(CsgSyntaxError):
            parse_csg("(Translate 1 2 Cube)")

    def test_parse_non_strict_allows_lambda_cad(self):
        term = parse_csg("(Fold Union Empty Nil)", strict=False)
        assert term.op == "Fold"

    def test_openscad_like_rendering(self):
        term = translate(1, 2, 3, cube())
        assert format_openscad_like(term) == "Translate (1, 2, 3, Cube)"

    @pytest.mark.parametrize("literal", ["inf", "-inf", "nan"])
    def test_openscad_like_prints_a_non_finite_number(self, literal):
        term = Term.parse(f"(Translate {literal} 0 0 Cube)")
        assert format_openscad_like(term) == f"Translate ({literal}, 0, 0, Cube)"

    def test_openscad_like_breaks_long_lines(self):
        term = union_all([translate(float(i), 0, 0, cube()) for i in range(10)])
        rendered = format_openscad_like(term, width=40)
        assert "\n" in rendered

    def test_line_count_scales_with_model(self):
        small = union_all([translate(float(i), 0, 0, cube()) for i in range(2)])
        large = union_all([translate(float(i), 0, 0, cube()) for i in range(30)])
        assert line_count(large) > line_count(small)


class TestValidation:
    def test_valid_flat_csg(self):
        term = diff(union(cube(), sphere()), translate(1, 2, 3, cylinder()))
        validate_flat_csg(term)  # should not raise
        assert is_flat_csg(term)

    def test_reject_symbolic_affine_argument(self):
        term = Term("Translate", (Term("x"), Term.num(0), Term.num(0), cube()))
        assert not is_flat_csg(term)

    def test_reject_lambda_cad_features(self):
        assert not is_flat_csg(Term.parse("(Fold Union Empty Nil)"))

    def test_reject_primitive_with_children(self):
        assert not is_flat_csg(Term("Cube", (cube(),)))

    def test_reject_numeric_solid(self):
        with pytest.raises(CsgValidationError):
            validate_flat_csg(Term.num(3))

    def test_external_toggle(self):
        term = union(cube(), external())
        assert is_flat_csg(term, allow_external=True)
        assert not is_flat_csg(term, allow_external=False)

    def test_boolean_arity_checked(self):
        with pytest.raises(CsgValidationError):
            validate_flat_csg(Term("Union", (cube(),)))


class TestMetrics:
    def test_ast_size_matches_term_size(self):
        term = diff(union(cube(), sphere()), cylinder())
        assert ast_size(term) == term.size() == 5

    def test_depth(self):
        term = translate(1, 2, 3, scale(1, 1, 1, cube()))
        assert ast_depth(term) == 3

    def test_primitive_count_ignores_empty(self):
        term = union(cube(), union(empty(), sphere()))
        assert primitive_count(term) == 2

    def test_primitive_count_in_structured_program(self):
        # A Repeat'ed primitive counts once, which is how #o-p drops in Table 1.
        structured = Term.parse("(Fold Union Empty (Repeat (Scale 8 4 50 Unit) 60))")
        assert primitive_count(structured) == 1

    def test_measure_and_reduction(self):
        flat = union_all([translate(float(i), 0, 0, cube()) for i in range(10)])
        structured = Term.parse(
            "(Fold Union Empty (Mapi (Fun i c (Translate i 0 0 c)) (Repeat Cube 10)))"
        )
        flat_metrics = measure(flat)
        structured_metrics = measure(structured)
        assert flat_metrics.nodes > structured_metrics.nodes
        assert structured_metrics.size_reduction_vs(flat_metrics) > 0.5
