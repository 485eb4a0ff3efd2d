"""Evaluation of LambdaCAD programs down to flat CSG ("unrolling").

The flat CSG input to Szalinski can be viewed as a single trace of the
structured LambdaCAD program it synthesizes (paper Section 7, "CSG is a
single trace").  Evaluation reverses the synthesis: it executes the lists,
folds, maps, functions, and arithmetic, and leaves behind only primitives,
affine transformations with literal vectors, and boolean operators.  This is
the inverse transformation used for translation validation — a synthesized
program is accepted when its unrolling is equivalent to the input.

Evaluation produces one of three kinds of values:

* a **number** (Python ``int``/``float``) — from literals and arithmetic;
* a **list** (Python ``list`` of values) — from ``Nil``/``Cons``/``Repeat``/...;
* a **solid** (a flat-CSG :class:`~repro.lang.term.Term`) — from primitives,
  affine and boolean nodes, and from folds of boolean operators.

Two conventions from the paper's output format are honoured:

* ``Fold (Union, Empty, items)`` unrolls to the right-nested
  ``Union (x1, Union (x2, ...))`` *without* a trailing ``Empty`` (Empty is a
  unit of Union, and the paper's Fold-introduction rewrites go between
  exactly these two shapes);
* ``Fold (Fun i -> body, Nil, indices)`` — a fold whose function takes a
  single parameter and whose accumulator is a list — is a *map-concatenate*:
  it is the shape the nested-loop inference emits (paper Figs. 14 and 17),
  collecting the per-index results into one list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.cad.ops import ARITH_OPS, TRIG_OPS
from repro.csg.ops import AFFINE_OPS, BOOLEAN_OPS, CSG_PRIMITIVES, EXTERNAL_OP
from repro.lang.term import Term

Value = Union[int, float, list, Term, "Closure"]


class EvalError(ValueError):
    """Raised when a LambdaCAD program cannot be evaluated."""


@dataclass
class Closure:
    """A ``Fun`` value: parameter names, a body term, and the captured env."""

    params: tuple
    body: Term
    env: Dict[str, Value]

    def arity(self) -> int:
        return len(self.params)


def _is_number(value: Value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value: Value, context: str) -> float:
    if not _is_number(value):
        raise EvalError(f"{context}: expected a number, got {value!r}")
    return value


def _as_solid(value: Value, context: str) -> Term:
    if not isinstance(value, Term):
        raise EvalError(f"{context}: expected a solid, got {value!r}")
    return value


def _as_list(value: Value, context: str) -> list:
    if not isinstance(value, list):
        raise EvalError(f"{context}: expected a list, got {value!r}")
    return value


def _num_term(value: Union[int, float]) -> Term:
    """Build a numeric literal term, normalizing -0.0 to 0.0."""
    if isinstance(value, float) and value == 0.0:
        value = 0.0
    return Term.num(value)


class Evaluator:
    """Evaluates LambdaCAD terms; stateless apart from recursion limits."""

    def __init__(self, max_list_length: int = 1_000_000):
        self.max_list_length = max_list_length

    # -- public API -------------------------------------------------------------

    def evaluate(self, term: Term, env: Optional[Dict[str, Value]] = None) -> Value:
        """Evaluate ``term`` in ``env`` and return a value."""
        return self._eval(term, env or {})

    def unroll(self, term: Term, env: Optional[Dict[str, Value]] = None) -> Term:
        """Evaluate ``term`` and require the result to be a flat CSG solid."""
        value = self._eval(term, env or {})
        if isinstance(value, list):
            raise EvalError("program evaluated to a list, not a solid")
        if isinstance(value, Closure):
            raise EvalError("program evaluated to a function, not a solid")
        if _is_number(value):
            raise EvalError("program evaluated to a number, not a solid")
        return value

    # -- dispatcher -------------------------------------------------------------

    def _eval(self, term: Term, env: Dict[str, Value]) -> Value:
        op = term.op

        if term.is_number:
            return term.value

        if op in ("Int", "Float") and len(term.children) == 1:
            return _as_number(self._eval(term.children[0], env), op)

        if op == "Var":
            return self._eval_var(term, env)

        if op == "Fun":
            return self._eval_fun(term, env)

        if op == "App":
            return self._eval_app(term, env)

        if op in ARITH_OPS:
            return self._eval_arith(term, env)

        if op in TRIG_OPS:
            return self._eval_trig(term, env)

        if op == "Nil":
            return []

        if op == "Cons":
            return self._eval_cons(term, env)

        if op == "Concat":
            return self._eval_concat(term, env)

        if op == "Repeat":
            return self._eval_repeat(term, env)

        if op == "Fold":
            return self._eval_fold(term, env)

        if op == "Map":
            return self._eval_map(term, env, with_index=False)

        if op == "Mapi":
            return self._eval_map(term, env, with_index=True)

        if op in AFFINE_OPS:
            return self._eval_affine(term, env)

        if op in BOOLEAN_OPS:
            if term.is_leaf:
                # A bare Union/Diff/Inter used as a function value (the first
                # argument of a Fold).
                return Term(op)
            return self._eval_boolean(term, env)

        if op in CSG_PRIMITIVES or op == EXTERNAL_OP:
            if term.children:
                raise EvalError(f"primitive {op} must not have children")
            return Term(op)

        if term.is_leaf and isinstance(op, str):
            # A bare symbol: either a bound variable used without the ``Var``
            # wrapper (the paper's examples write ``c`` directly inside
            # function bodies) or an opaque named sub-design like ``Tooth``.
            if op in env:
                return env[op]
            return Term(op)

        # Compound term with an unknown head: evaluate the children and keep
        # the head — this lets unrolling pass through already-flat fragments
        # unchanged.
        raise EvalError(f"cannot evaluate operator {op!r}")

    # -- individual forms --------------------------------------------------------

    def _eval_var(self, term: Term, env: Dict[str, Value]) -> Value:
        if len(term.children) != 1 or not term.children[0].is_leaf:
            raise EvalError("Var expects a single name argument")
        name = str(term.children[0].op)
        if name not in env:
            raise EvalError(f"unbound variable {name!r}")
        return env[name]

    def _eval_fun(self, term: Term, env: Dict[str, Value]) -> Closure:
        if len(term.children) < 2:
            raise EvalError("Fun expects parameter names and a body")
        *param_terms, body = term.children
        params = []
        for p in param_terms:
            if not p.is_leaf or not isinstance(p.op, str):
                raise EvalError(f"Fun parameter is not a name: {p!r}")
            params.append(p.op)
        return Closure(tuple(params), body, dict(env))

    def _eval_app(self, term: Term, env: Dict[str, Value]) -> Value:
        if not term.children:
            raise EvalError("App expects a function")
        function = self._eval(term.children[0], env)
        arguments = [self._eval(arg, env) for arg in term.children[1:]]
        return self._apply(function, arguments)

    def _apply(self, function: Value, arguments: List[Value]) -> Value:
        if isinstance(function, Closure):
            if len(arguments) != function.arity():
                raise EvalError(
                    f"function expects {function.arity()} arguments, got {len(arguments)}"
                )
            call_env = dict(function.env)
            call_env.update(zip(function.params, arguments))
            return self._eval(function.body, call_env)
        if isinstance(function, Term) and function.is_leaf and function.op in BOOLEAN_OPS:
            if len(arguments) != 2:
                raise EvalError(f"{function.op} expects 2 arguments")
            left = _as_solid(arguments[0], str(function.op))
            right = _as_solid(arguments[1], str(function.op))
            return Term(function.op, (left, right))
        raise EvalError(f"value is not callable: {function!r}")

    def _eval_arith(self, term: Term, env: Dict[str, Value]) -> float:
        left = _as_number(self._eval(term.children[0], env), str(term.op))
        right = _as_number(self._eval(term.children[1], env), str(term.op))
        if term.op == "Add":
            return left + right
        if term.op == "Sub":
            return left - right
        if term.op == "Mul":
            return left * right
        if term.op == "Div":
            if right == 0:
                raise EvalError("division by zero")
            return left / right
        raise EvalError(f"unknown arithmetic operator {term.op!r}")

    def _eval_trig(self, term: Term, env: Dict[str, Value]) -> float:
        if term.op == "Arctan":
            y = _as_number(self._eval(term.children[0], env), "Arctan")
            x = _as_number(self._eval(term.children[1], env), "Arctan")
            return math.degrees(math.atan2(y, x))
        argument = _as_number(self._eval(term.children[0], env), str(term.op))
        radians = math.radians(argument)
        if term.op == "Sin":
            return math.sin(radians)
        if term.op == "Cos":
            return math.cos(radians)
        raise EvalError(f"unknown trigonometric operator {term.op!r}")

    def _eval_cons(self, term: Term, env: Dict[str, Value]) -> list:
        # The spine is read in a loop, not one recursion per cell; heads
        # still evaluate first to last, then the tail.
        heads = []
        while term.op == "Cons":
            if len(term.children) != 2:
                raise EvalError("Cons expects a head and a tail")
            heads.append(self._eval(term.children[0], env))
            term = term.children[1]
        return heads + _as_list(self._eval(term, env), "Cons tail")

    def _eval_concat(self, term: Term, env: Dict[str, Value]) -> list:
        # A Concat chain (inference joins runs one at a time, nested either
        # way) is walked with an explicit stack, not one recursion per link;
        # operands still evaluate left to right, each checked as it comes.
        result: list = []
        pending = [term]
        while pending:
            node = pending.pop()
            if node.op == "Concat":
                if len(node.children) != 2:
                    raise EvalError("Concat expects 2 arguments")
                pending.append(node.children[1])
                pending.append(node.children[0])
            else:
                result.extend(_as_list(self._eval(node, env), "Concat"))
        return result

    def _eval_repeat(self, term: Term, env: Dict[str, Value]) -> list:
        if len(term.children) != 2:
            raise EvalError("Repeat expects an element and a count")
        element = self._eval(term.children[0], env)
        count_value = self._eval(term.children[1], env)
        count = int(_as_number(count_value, "Repeat count"))
        if count < 0:
            raise EvalError("Repeat count must be non-negative")
        if count > self.max_list_length:
            raise EvalError(f"Repeat count {count} exceeds the evaluator limit")
        return [element for _ in range(count)]

    def _eval_fold(self, term: Term, env: Dict[str, Value]) -> Value:
        if len(term.children) != 3:
            raise EvalError("Fold expects (function, accumulator, list)")
        function_term, accumulator_term, items_term = term.children
        items = _as_list(self._eval(items_term, env), "Fold list")
        function = self._eval(function_term, env)
        accumulator = self._eval(accumulator_term, env)

        # Fold of a binary boolean operator over solids.
        if isinstance(function, Term) and function.is_leaf and function.op in BOOLEAN_OPS:
            return self._fold_boolean(str(function.op), accumulator, items)

        if isinstance(function, Closure):
            if function.arity() == 1:
                # Map-concatenate convention used by nested-loop output.
                result = list(_as_list(accumulator, "Fold accumulator")) if isinstance(accumulator, list) else []
                for item in items:
                    mapped = self._apply(function, [item])
                    if isinstance(mapped, list):
                        result.extend(mapped)
                    else:
                        result.append(mapped)
                return result
            if function.arity() == 2:
                # Conventional right fold: f element accumulator.
                result = accumulator
                for item in reversed(items):
                    result = self._apply(function, [item, result])
                return result
        raise EvalError(f"Fold function is not foldable: {function!r}")

    def _fold_boolean(self, op: str, accumulator: Value, items: list) -> Term:
        solids = [_as_solid(item, f"Fold over {op}") for item in items]
        accumulator_solid = _as_solid(accumulator, f"Fold over {op}")
        if not solids:
            return accumulator_solid
        # Drop an Empty accumulator (it is the unit of Union); otherwise keep
        # it as the right-most operand.
        parts = solids if accumulator_solid.op == "Empty" else solids + [accumulator_solid]
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = Term(op, (part, result))
        return result

    def _eval_map(self, term: Term, env: Dict[str, Value], *, with_index: bool) -> list:
        if len(term.children) != 2:
            raise EvalError("Map/Mapi expects (function, list)")
        function = self._eval(term.children[0], env)
        items = _as_list(self._eval(term.children[1], env), "Map list")
        if not isinstance(function, Closure):
            raise EvalError("Map/Mapi expects a Fun as its function")
        results = []
        for index, item in enumerate(items):
            if with_index:
                if function.arity() != 2:
                    raise EvalError("Mapi function must take (index, element)")
                results.append(self._apply(function, [index, item]))
            else:
                if function.arity() != 1:
                    raise EvalError("Map function must take a single element")
                results.append(self._apply(function, [item]))
        return results

    def _eval_affine(self, term: Term, env: Dict[str, Value]) -> Term:
        if len(term.children) != 4:
            raise EvalError(f"{term.op} expects 4 arguments")
        vector = [
            _as_number(self._eval(child, env), f"{term.op} argument")
            for child in term.children[:3]
        ]
        child = _as_solid(self._eval(term.children[3], env), str(term.op))
        return Term(term.op, tuple(_num_term(v) for v in vector) + (child,))

    def _eval_boolean(self, term: Term, env: Dict[str, Value]) -> Term:
        # Nested applications of the same operator (a union of thousands of
        # solids) are walked with an explicit stack, not one recursion per
        # operand; operands still evaluate left to right.
        op = term.op
        solids: List[Term] = []
        pending = [(term, False)]
        while pending:
            node, operands_done = pending.pop()
            if operands_done:
                right = solids.pop()
                solids.append(Term(op, (solids.pop(), right)))
            elif node.op == op and node.children:
                if len(node.children) != 2:
                    raise EvalError(f"{op} expects 2 arguments")
                pending.append((node, True))
                pending.append((node.children[1], False))
                pending.append((node.children[0], False))
            else:
                solids.append(_as_solid(self._eval(node, env), str(op)))
        return solids[0]


_DEFAULT_EVALUATOR = Evaluator()


def evaluate(term: Term, env: Optional[Dict[str, Value]] = None) -> Value:
    """Evaluate a LambdaCAD term with the default evaluator."""
    return _DEFAULT_EVALUATOR.evaluate(term, env)


def unroll(term: Term, env: Optional[Dict[str, Value]] = None) -> Term:
    """Unroll a LambdaCAD program to an equivalent flat CSG term."""
    return _DEFAULT_EVALUATOR.unroll(term, env)
