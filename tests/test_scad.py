"""Unit tests for the OpenSCAD frontend (lexer, parser, flattener) and emitter."""

import math

import pytest

from repro.csg.build import cube, diff, translate
from repro.csg.metrics import measure, primitive_count
from repro.csg.validate import is_flat_csg
from repro.geometry.membership import csg_contains
from repro.geometry.vec import Vec3
from repro.lang.term import Term
from repro.scad.ast import Assignment, ForLoop, ModuleCall, ModuleDef
from repro.scad.emit import EmitError, emit_openscad
from repro.scad.flatten import ScadEvalError, flatten_source
from repro.scad.lexer import ScadSyntaxError, tokenize
from repro.scad.parser import parse_scad
from repro.verify.geometric import occupancy_agreement
from repro.verify.validate import validate_synthesis


class TestLexer:
    def test_numbers_identifiers_punctuation(self):
        tokens = tokenize("cube([1, 2.5, 3]);")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "ident"
        assert "number" in kinds and "punct" in kinds

    def test_comments_stripped(self):
        tokens = tokenize("// line comment\ncube(1); /* block\ncomment */ sphere(2);")
        idents = [t.text for t in tokens if t.kind == "ident"]
        assert idents == ["cube", "sphere"]

    def test_keywords(self):
        tokens = tokenize("module m() { for (i = [0:1]) cube(1); }")
        keywords = [t.text for t in tokens if t.kind == "keyword"]
        assert "module" in keywords and "for" in keywords

    def test_string_literal(self):
        tokens = tokenize('echo("hello world");')
        assert any(t.kind == "string" and t.text == "hello world" for t in tokens)

    def test_two_char_operators(self):
        tokens = tokenize("a <= b == c")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<=", "=="]

    def test_unterminated_block_comment(self):
        with pytest.raises(ScadSyntaxError):
            tokenize("/* oops")

    def test_unexpected_character(self):
        with pytest.raises(ScadSyntaxError):
            tokenize("cube(1) @")


class TestParser:
    def test_assignment(self):
        program = parse_scad("x = 3 + 4 * 2;")
        assert isinstance(program.statements[0], Assignment)

    def test_module_call_with_children(self):
        program = parse_scad("translate([1, 2, 3]) cube([1, 1, 1]);")
        call = program.statements[0]
        assert isinstance(call, ModuleCall)
        assert call.name == "translate"
        assert len(call.children) == 1

    def test_block_children(self):
        program = parse_scad("union() { cube(1); sphere(2); }")
        call = program.statements[0]
        assert len(call.children) == 2

    def test_named_arguments(self):
        program = parse_scad("cylinder(h = 10, r = 2, center = true);")
        call = program.statements[0]
        assert dict(call.named).keys() == {"h", "r", "center"}

    def test_for_loop_with_range(self):
        program = parse_scad("for (i = [0 : 2 : 10]) cube(i);")
        loop = program.statements[0]
        assert isinstance(loop, ForLoop)
        assert loop.variable == "i"

    def test_module_definition(self):
        program = parse_scad("module tooth(w = 2) { cube([w, 1, 1]); } tooth(3);")
        assert isinstance(program.statements[0], ModuleDef)
        assert isinstance(program.statements[1], ModuleCall)

    def test_if_else(self):
        program = parse_scad("if (1 < 2) cube(1); else sphere(1);")
        statement = program.statements[0]
        assert statement.then_body and statement.else_body

    def test_syntax_error_reported(self):
        with pytest.raises(ScadSyntaxError):
            parse_scad("translate([1, 2, 3) cube(1);")


class TestFlattening:
    def test_cube_default_corner_at_origin(self):
        flat = flatten_source("cube([2, 4, 6]);")
        assert is_flat_csg(flat)
        assert csg_contains(flat, Vec3(1.0, 2.0, 3.0))
        assert not csg_contains(flat, Vec3(-0.1, 2.0, 3.0))

    def test_cube_centered(self):
        flat = flatten_source("cube([2, 2, 2], center = true);")
        assert csg_contains(flat, Vec3(0, 0, 0))
        assert csg_contains(flat, Vec3(0.9, 0.9, 0.9))

    def test_cylinder_and_sphere(self):
        flat = flatten_source("cylinder(h = 10, r = 2); sphere(r = 3);")
        assert primitive_count(flat) == 2
        assert csg_contains(flat, Vec3(0, 0, 5.0))   # inside the (uncentered) cylinder
        assert csg_contains(flat, Vec3(0, 0, -2.9))  # inside the sphere

    @pytest.mark.parametrize(
        "source",
        [
            "cylinder(h=2, r=3, center=true, $fn=6);",
            "$fn = 6;\ncylinder(h=2, r=3, center=true);",
        ],
    )
    def test_six_fragment_cylinder_is_openscads_hexagon(self, source):
        # OpenSCAD puts the first vertex of a $fn=6 polygon on +x: the
        # vertex at (3, 0) is inside, while (0, 2.95) lies past the flat
        # side at the apothem 3*sqrt(3)/2 ~ 2.6.
        flat = flatten_source(source)
        assert csg_contains(flat, Vec3(2.95, 0, 0))
        assert not csg_contains(flat, Vec3(0, 2.95, 0))

    def test_other_fragment_counts_stay_round(self):
        flat = flatten_source("cylinder(h=2, r=3, center=true, $fn=8);")
        assert csg_contains(flat, Vec3(0, 2.95, 0))

    def test_sphere_diameter_argument(self):
        flat = flatten_source("sphere(d = 10);")
        assert csg_contains(flat, Vec3(4.9, 0, 0))
        assert not csg_contains(flat, Vec3(5.1, 0, 0))

    def test_transforms(self):
        flat = flatten_source("translate([10, 0, 0]) rotate([0, 0, 90]) cube([4, 1, 1], center=true);")
        assert csg_contains(flat, Vec3(10.0, 1.5, 0.0))

    def test_variables_and_arithmetic(self):
        flat = flatten_source("w = 4; h = w * 2 + 1; cube([w, h, 1], center=true);")
        assert csg_contains(flat, Vec3(1.9, 4.4, 0))

    def test_for_loop_unrolls(self):
        flat = flatten_source("for (i = [0 : 4]) translate([i * 3, 0, 0]) cube([1, 1, 1]);")
        assert primitive_count(flat) == 5
        assert is_flat_csg(flat)

    def test_for_over_vector(self):
        flat = flatten_source("for (x = [1, 5, 9]) translate([x, 0, 0]) sphere(1);")
        assert primitive_count(flat) == 3

    def test_difference_semantics(self):
        flat = flatten_source(
            "difference() { cube([10, 10, 10], center=true); cube([4, 4, 20], center=true); }"
        )
        assert flat.op == "Diff"
        assert not csg_contains(flat, Vec3(0, 0, 0))
        assert csg_contains(flat, Vec3(4, 4, 0))

    def test_difference_multiple_subtrahends_unioned(self):
        flat = flatten_source(
            "difference() { cube([10,10,10]); sphere(1); translate([5,5,5]) sphere(1); }"
        )
        assert flat.op == "Diff"
        assert flat.children[1].op == "Union"

    def test_intersection(self):
        flat = flatten_source("intersection() { cube([4,4,4], center=true); sphere(2); }")
        assert flat.op == "Inter"

    def test_module_definition_and_call(self):
        source = """
        module post(h) { translate([0, 0, h / 2]) cube([1, 1, h], center = true); }
        for (i = [0 : 2]) translate([i * 5, 0, 0]) post(10);
        """
        flat = flatten_source(source)
        assert primitive_count(flat) == 3
        assert csg_contains(flat, Vec3(5.0, 0.0, 9.0))

    def test_module_default_parameter(self):
        flat = flatten_source("module m(s = 2) { cube([s, s, s], center=true); } m();")
        assert csg_contains(flat, Vec3(0.9, 0.9, 0.9))

    def test_missing_required_argument(self):
        with pytest.raises(ScadEvalError):
            flatten_source("module m(s) { cube(s); } m();")

    def test_conditional_expression_and_if(self):
        flat = flatten_source("x = 1 < 2 ? 5 : 9; if (x == 5) cube([x, 1, 1]); else sphere(1);")
        assert primitive_count(flat) == 1
        assert csg_contains(flat, Vec3(4.5, 0.5, 0.5))

    def test_builtin_math_functions(self):
        flat = flatten_source("translate([10 * cos(60), 10 * sin(60), 0]) sphere(1);")
        assert csg_contains(flat, Vec3(5.0, 10.0 * math.sin(math.radians(60)), 0.0))

    def test_hull_becomes_external(self):
        flat = flatten_source("union() { cube(1); hull() { sphere(1); cube(1); } }")
        assert "External" in {t.op for t in flat.subterms()}

    def test_unknown_module_rejected(self):
        with pytest.raises(ScadEvalError):
            flatten_source("frobnicate(1);")

    def test_vector_indexing_and_len(self):
        flat = flatten_source("v = [4, 5, 6]; cube([v[0], v[1], len(v)], center=true);")
        assert csg_contains(flat, Vec3(1.9, 2.4, 1.4))

    def test_undefined_variable_rejected(self):
        with pytest.raises(ScadEvalError):
            flatten_source("cube([missing, 1, 1]);")

    def test_self_recursive_module_is_an_evaluation_error(self):
        with pytest.raises(ScadEvalError, match="nested too deeply to evaluate in module 'm'"):
            flatten_source("module m() { m(); } m();")

    def test_too_deep_nesting_is_a_syntax_error(self):
        # The emitter's text for a plate with 300 holes cut one at a time:
        # one difference() block per cut, nested 300 deep.
        plate = cube()
        for index in range(300):
            plate = diff(plate, translate(float(index), 0.0, 0.0, cube()))
        with pytest.raises(ScadSyntaxError, match="nested too deeply to parse"):
            flatten_source(emit_openscad(plate))


class TestEmit:
    def test_emit_primitives_and_transforms(self):
        term = Term.parse("(Translate 1 2 3 (Scale 2 2 2 Cube))")
        source = emit_openscad(term)
        assert "translate([1, 2, 3])" in source
        assert "scale([2, 2, 2])" in source
        assert "cube(" in source

    @pytest.mark.parametrize("value", [1234.5678, 99999.25])
    def test_non_integral_numbers_round_trip_exactly(self, value):
        term = Term.parse(f"(Translate {value!r} 0 0 Cube)")
        source = emit_openscad(term)
        assert f"translate([{value!r}, 0, 0])" in source
        assert validate_synthesis(term, flatten_source(source)).valid

    @pytest.mark.parametrize("literal", ["inf", "-inf", "nan"])
    def test_a_non_finite_number_is_an_emit_error_naming_it(self, literal):
        term = Term.parse(f"(Union Cube (Translate 1 2 0 (Scale 2 {literal} 2 Cube)))")
        with pytest.raises(EmitError, match=f"non-finite number {literal}"):
            emit_openscad(term)

    def test_emit_round_trip_geometry(self):
        original = flatten_source("difference() { cube([10,10,10], center=true); sphere(3); }")
        emitted = emit_openscad(original)
        reflattened = flatten_source(emitted)
        report = occupancy_agreement(original, reflattened, resolution=12)
        assert report.agreement >= 0.98

    def test_emitted_hexagon_round_trips_exactly(self):
        hexagon = Term.parse("(Scale 4 4 4 Hexagon)")
        reflattened = flatten_source(emit_openscad(hexagon))
        assert occupancy_agreement(hexagon, reflattened).agreement == 1.0
        assert validate_synthesis(hexagon, reflattened).valid

    def test_emit_structured_program_unrolls_first(self):
        program = Term.parse("(Fold Union Empty (Repeat (Scale 2 2 2 Cube) 3))")
        source = emit_openscad(program)
        assert source.count("cube(") == 3
