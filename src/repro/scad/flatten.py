"""Evaluation of OpenSCAD programs into flat CSG terms.

This is the "translator that can flatten these programs into loop-free CSG"
from the paper's evaluation setup: loops are unrolled, variables and module
calls are substituted, arithmetic is computed, and only primitives, affine
transformations with literal vectors, and boolean operators remain.

Primitive canonicalization: our CSG primitives are unit-sized and centred at
the origin (paper Section 2), so

* ``cube([x, y, z])`` becomes ``Translate (x/2, y/2, z/2, Scale (x, y, z, Cube))``
  (OpenSCAD cubes sit on the positive octant unless ``center=true``);
* ``cylinder(h, r)`` becomes ``Translate (0, 0, h/2, Scale (r, r, h, Cylinder))``
  (OpenSCAD cylinders sit on the XY plane unless ``center=true``);
* a ``cylinder`` with ``$fn`` 6 (as an argument or in scope) is the
  hexagonal prism OpenSCAD renders, first vertex on +x:
  ``Scale (r, r, h, Rotate (0, 0, -90, Hexagon))``, translated likewise
  when not centred (the canonical ``Hexagon`` has its vertices at
  30 + k*60 degrees); any other ``$fn`` keeps the round ``Cylinder``;
* ``sphere(r)`` becomes ``Scale (r, r, r, Sphere)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.csg.build import cube, cylinder, diff, empty, hexagon, inter, rotate, scale, sphere, translate, union, union_all
from repro.lang.term import Term
from repro.scad import ast
from repro.scad.parser import parse_scad

Value = Union[float, bool, str, list]


class ScadEvalError(ValueError):
    """Raised when an OpenSCAD program cannot be flattened."""


@dataclass
class _Environment:
    variables: Dict[str, Value] = field(default_factory=dict)
    modules: Dict[str, ast.ModuleDef] = field(default_factory=dict)

    def child(self) -> "_Environment":
        return _Environment(dict(self.variables), dict(self.modules))


class _Flattener:
    """Evaluates statements to lists of flat CSG solids."""

    def __init__(self, max_unroll: int = 100_000):
        self.max_unroll = max_unroll
        #: User modules being evaluated, innermost last.  An error leaves
        #: it as it was, so it names the calls that were open.
        self.calls: List[str] = []

    # -- expressions ----------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr, env: _Environment) -> Value:
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Boolean):
            return expr.value
        if isinstance(expr, ast.String):
            return expr.value
        if isinstance(expr, ast.Ident):
            if expr.name in env.variables:
                return env.variables[expr.name]
            if expr.name.startswith("$"):
                return 0.0  # special variables ($fn etc.) default to 0
            raise ScadEvalError(f"undefined variable {expr.name!r}")
        if isinstance(expr, ast.Vector):
            return [self.eval_expr(item, env) for item in expr.items]
        if isinstance(expr, ast.Range):
            return self._eval_range(expr, env)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval_expr(expr.operand, env)
            if expr.op == "-":
                return -self._as_number(operand)
            if expr.op == "!":
                return not operand
            raise ScadEvalError(f"unsupported unary operator {expr.op!r}")
        if isinstance(expr, ast.Conditional):
            condition = self.eval_expr(expr.condition, env)
            return self.eval_expr(expr.if_true if condition else expr.if_false, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Index):
            target = self.eval_expr(expr.target, env)
            index = int(self._as_number(self.eval_expr(expr.index, env)))
            if not isinstance(target, list):
                raise ScadEvalError("indexing a non-vector value")
            return target[index]
        raise ScadEvalError(f"unsupported expression {expr!r}")

    def _eval_range(self, expr: ast.Range, env: _Environment) -> list:
        start = self._as_number(self.eval_expr(expr.start, env))
        end = self._as_number(self.eval_expr(expr.end, env))
        step = 1.0
        if expr.step is not None:
            step = self._as_number(self.eval_expr(expr.step, env))
        if step == 0:
            raise ScadEvalError("range step must be non-zero")
        values: List[float] = []
        current = start
        comparison = (lambda c: c <= end + 1e-12) if step > 0 else (lambda c: c >= end - 1e-12)
        while comparison(current):
            values.append(current)
            current += step
            if len(values) > self.max_unroll:
                raise ScadEvalError("range exceeds the unrolling limit")
        return values

    def _eval_binop(self, expr: ast.BinOp, env: _Environment) -> Value:
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        op = expr.op
        if op in ("&&", "||"):
            return bool(left and right) if op == "&&" else bool(left or right)
        if op in ("==", "!="):
            return (left == right) if op == "==" else (left != right)
        lhs, rhs = self._as_number(left), self._as_number(right)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise ScadEvalError("division by zero")
            return lhs / rhs
        if op == "%":
            return math.fmod(lhs, rhs)
        if op == "<":
            return lhs < rhs
        if op == ">":
            return lhs > rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">=":
            return lhs >= rhs
        raise ScadEvalError(f"unsupported operator {op!r}")

    def _eval_call(self, expr: ast.Call, env: _Environment) -> Value:
        args = [self.eval_expr(a, env) for a in expr.args]
        name = expr.name
        if name == "sin":
            return math.sin(math.radians(self._as_number(args[0])))
        if name == "cos":
            return math.cos(math.radians(self._as_number(args[0])))
        if name == "tan":
            return math.tan(math.radians(self._as_number(args[0])))
        if name == "atan2":
            return math.degrees(math.atan2(self._as_number(args[0]), self._as_number(args[1])))
        if name == "sqrt":
            return math.sqrt(self._as_number(args[0]))
        if name == "abs":
            return abs(self._as_number(args[0]))
        if name == "floor":
            return math.floor(self._as_number(args[0]))
        if name == "ceil":
            return math.ceil(self._as_number(args[0]))
        if name == "round":
            return float(round(self._as_number(args[0])))
        if name == "pow":
            return self._as_number(args[0]) ** self._as_number(args[1])
        if name == "min":
            return min(self._as_number(a) for a in args)
        if name == "max":
            return max(self._as_number(a) for a in args)
        if name == "len":
            if not isinstance(args[0], list):
                raise ScadEvalError("len expects a vector")
            return float(len(args[0]))
        raise ScadEvalError(f"unsupported function {name!r}")

    @staticmethod
    def _as_number(value: Value) -> float:
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, (int, float)):
            return float(value)
        raise ScadEvalError(f"expected a number, got {value!r}")

    def _as_vector3(self, value: Value) -> List[float]:
        if isinstance(value, (int, float)):
            return [float(value)] * 3
        if isinstance(value, list):
            numbers = [self._as_number(v) for v in value]
            while len(numbers) < 3:
                numbers.append(0.0)
            return numbers[:3]
        raise ScadEvalError(f"expected a vector, got {value!r}")

    # -- statements ----------------------------------------------------------------

    def flatten_statements(self, statements: Sequence[ast.Statement], env: _Environment) -> List[Term]:
        solids: List[Term] = []
        for statement in statements:
            if isinstance(statement, ast.Assignment):
                env.variables[statement.name] = self.eval_expr(statement.value, env)
            elif isinstance(statement, ast.ModuleDef):
                env.modules[statement.name] = statement
            elif isinstance(statement, ast.ForLoop):
                solids.extend(self._flatten_for(statement, env))
            elif isinstance(statement, ast.IfStatement):
                branch = (
                    statement.then_body
                    if self.eval_expr(statement.condition, env)
                    else statement.else_body
                )
                solids.extend(self.flatten_statements(branch, env.child()))
            elif isinstance(statement, ast.ModuleCall):
                solid = self._flatten_call(statement, env)
                if solid is not None:
                    solids.append(solid)
            else:
                raise ScadEvalError(f"unsupported statement {statement!r}")
        return solids

    def _flatten_for(self, loop: ast.ForLoop, env: _Environment) -> List[Term]:
        iterable = self.eval_expr(loop.iterable, env)
        if not isinstance(iterable, list):
            raise ScadEvalError("for-loop iterable must be a vector or range")
        solids: List[Term] = []
        for value in iterable:
            body_env = env.child()
            body_env.variables[loop.variable] = value
            solids.extend(self.flatten_statements(loop.body, body_env))
        return solids

    def _argument(
        self,
        call: ast.ModuleCall,
        env: _Environment,
        position: int,
        name: str,
        default: Optional[Value] = None,
    ) -> Optional[Value]:
        for arg_name, expr in call.named:
            if arg_name == name:
                return self.eval_expr(expr, env)
        if position < len(call.positional):
            return self.eval_expr(call.positional[position], env)
        return default

    def _special(self, call: ast.ModuleCall, env: _Environment, name: str) -> Value:
        """A special variable (``$fn``...): a named argument, else the one in scope."""
        for arg_name, expr in call.named:
            if arg_name == name:
                return self.eval_expr(expr, env)
        return env.variables.get(name, 0.0)

    def _children_solid(self, call: ast.ModuleCall, env: _Environment) -> Term:
        children = self.flatten_statements(call.children, env.child())
        if not children:
            return empty()
        return union_all(children)

    def _flatten_call(self, call: ast.ModuleCall, env: _Environment) -> Optional[Term]:
        name = call.name

        if name in ("translate", "rotate", "scale"):
            vector = self._as_vector3(self._argument(call, env, 0, "v", [0, 0, 0]))
            child = self._children_solid(call, env)
            builder = {"translate": translate, "rotate": rotate, "scale": scale}[name]
            return builder(vector[0], vector[1], vector[2], child)

        if name in ("union", "group"):
            return self._children_solid(call, env)

        if name == "difference":
            # OpenSCAD semantics: the first child minus the union of the rest.
            children = self.flatten_statements(call.children, env.child())
            if not children:
                return empty()
            if len(children) == 1:
                return children[0]
            return diff(children[0], union_all(children[1:]))

        if name == "intersection":
            children = self.flatten_statements(call.children, env.child())
            if not children:
                return empty()
            result = children[-1]
            for other in reversed(children[:-1]):
                result = inter(other, result)
            return result

        if name == "cube":
            size = self._as_vector3(self._argument(call, env, 0, "size", 1.0))
            centered = bool(self._argument(call, env, 1, "center", False))
            solid = scale(size[0], size[1], size[2], cube())
            if centered:
                return solid
            return translate(size[0] / 2, size[1] / 2, size[2] / 2, solid)

        if name == "sphere":
            radius = self._argument(call, env, 0, "r", None)
            if radius is None:
                diameter = self._argument(call, env, 0, "d", 2.0)
                radius = self._as_number(diameter) / 2.0
            radius = self._as_number(radius)
            return scale(radius, radius, radius, sphere())

        if name == "cylinder":
            height = self._as_number(self._argument(call, env, 0, "h", 1.0))
            radius = self._argument(call, env, 1, "r", None)
            if radius is None:
                diameter = self._argument(call, env, 1, "d", None)
                radius = self._as_number(diameter) / 2.0 if diameter is not None else 1.0
            radius = self._as_number(radius)
            centered = bool(self._argument(call, env, 2, "center", False))
            # OpenSCAD truncates $fn to a whole number of fragments.
            if math.floor(self._as_number(self._special(call, env, "$fn"))) == 6:
                solid = scale(radius, radius, height, rotate(0.0, 0.0, -90.0, hexagon()))
            else:
                solid = scale(radius, radius, height, cylinder())
            if centered:
                return solid
            return translate(0.0, 0.0, height / 2.0, solid)

        if name in ("hexprism", "hexagon"):
            # Not an OpenSCAD builtin; accepted for symmetry with the CSG
            # language so benchmark sources can state hexagonal prisms
            # directly.
            height = self._as_number(self._argument(call, env, 0, "h", 1.0))
            radius = self._as_number(self._argument(call, env, 1, "r", 1.0))
            return scale(radius, radius, height, hexagon())

        if name in ("hull", "mirror", "minkowski", "linear_extrude", "rotate_extrude"):
            # Features Szalinski does not interpret: wrap in External, as the
            # paper does for the soldering and sander benchmarks.
            return Term("External")

        if name in env.modules:
            return self._flatten_user_module(env.modules[name], call, env)

        if name in ("echo", "assert"):
            return None

        raise ScadEvalError(f"unsupported module {name!r}")

    def _flatten_user_module(
        self, definition: ast.ModuleDef, call: ast.ModuleCall, env: _Environment
    ) -> Term:
        body_env = env.child()
        for position, (param_name, default_expr) in enumerate(definition.params):
            value = self._argument(call, env, position, param_name, None)
            if value is None:
                if default_expr is None:
                    raise ScadEvalError(
                        f"missing argument {param_name!r} for module {definition.name!r}"
                    )
                value = self.eval_expr(default_expr, env)
            body_env.variables[param_name] = value
        self.calls.append(definition.name)
        solids = self.flatten_statements(definition.body, body_env)
        self.calls.pop()
        if not solids:
            return empty()
        return union_all(solids)


def flatten_scad(program: ast.Program, *, max_unroll: int = 100_000) -> Term:
    """Flatten a parsed OpenSCAD program to a single flat CSG term.

    Evaluation recurses once per block and module call, so a program
    nested deeper than Python's recursion limit (a module that calls itself
    without end, say) raises :class:`ScadEvalError` naming the innermost
    open module call, not ``RecursionError``.
    """
    flattener = _Flattener(max_unroll=max_unroll)
    try:
        solids = flattener.flatten_statements(program.statements, _Environment())
    except RecursionError:
        calls = flattener.calls
        where = f" in module {calls[-1]!r}, {len(calls)} module calls deep" if calls else ""
        raise ScadEvalError(f"statements nested too deeply to evaluate{where}") from None
    if not solids:
        return empty()
    return union_all(solids)


def flatten_source(source: str, *, max_unroll: int = 100_000) -> Term:
    """Parse and flatten OpenSCAD source text."""
    return flatten_scad(parse_scad(source), max_unroll=max_unroll)
