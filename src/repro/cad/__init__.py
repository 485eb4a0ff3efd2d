"""LambdaCAD — the structured output language (paper Fig. 6 left).

LambdaCAD is a superset of flat CSG extended with functional-programming
features: lists (``Nil``/``Cons``/``Concat``/``Repeat``), structural
recursion (``Fold``/``Map``/``Mapi``), anonymous functions (``Fun``), variables,
arithmetic (``Add``/``Sub``/``Mul``/``Div``), and trigonometric functions
(``Sin``/``Cos``/``Arctan``, in degrees).

The central operation exported here is :func:`~repro.cad.evaluator.unroll`,
which evaluates a LambdaCAD program back down to an equivalent flat CSG —
this is the inverse transformation used for translation validation: a
synthesized program is correct when its unrolling matches the input CSG.
"""

from repro.cad.ops import (
    ARITH_OPS,
    LIST_OPS,
    HIGHER_ORDER_OPS,
    TRIG_OPS,
    LAMBDA_CAD_OPS,
)
from repro.cad.build import (
    nil,
    cons,
    cons_list,
    int_list,
    concat,
    repeat,
    fold,
    fold_union,
    map_,
    mapi,
    fun,
    var,
    add,
    sub,
    mul,
    div,
    sin,
    cos,
    arctan,
)
from repro.cad.evaluator import unroll, evaluate, EvalError
from repro.cad.validate import validate_lambda_cad, LambdaCadValidationError

__all__ = [
    "ARITH_OPS",
    "LIST_OPS",
    "HIGHER_ORDER_OPS",
    "TRIG_OPS",
    "LAMBDA_CAD_OPS",
    "nil",
    "cons",
    "cons_list",
    "int_list",
    "concat",
    "repeat",
    "fold",
    "fold_union",
    "map_",
    "mapi",
    "fun",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "sin",
    "cos",
    "arctan",
    "unroll",
    "evaluate",
    "EvalError",
    "validate_lambda_cad",
    "LambdaCadValidationError",
]
