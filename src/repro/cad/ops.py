"""Operator vocabulary of LambdaCAD beyond flat CSG."""

from __future__ import annotations

from typing import Tuple

from repro.csg.ops import AFFINE_OPS, BOOLEAN_OPS, CSG_PRIMITIVES
from repro.lang.term import Term

#: Binary arithmetic operators over numbers.
ARITH_OPS: Tuple[str, ...] = ("Add", "Sub", "Mul", "Div")

#: Trigonometric operators; angles are in degrees (matching OpenSCAD and the
#: closed forms printed in the paper, e.g. ``Sin (90 * i + 315)``).
TRIG_OPS: Tuple[str, ...] = ("Sin", "Cos", "Arctan")

#: List constructors and combinators.
LIST_OPS: Tuple[str, ...] = ("Nil", "Cons", "Concat", "Repeat")

#: Higher-order combinators that give LambdaCAD its loops.
HIGHER_ORDER_OPS: Tuple[str, ...] = ("Fold", "Map", "Mapi")

#: Functions and variables.
BINDING_OPS: Tuple[str, ...] = ("Fun", "App", "Var")

#: Every operator LambdaCAD adds on top of flat CSG.
LAMBDA_CAD_ONLY_OPS: Tuple[str, ...] = (
    ARITH_OPS + TRIG_OPS + LIST_OPS + HIGHER_ORDER_OPS + BINDING_OPS
)

#: The full LambdaCAD vocabulary (CSG plus the functional extension).
LAMBDA_CAD_OPS: Tuple[str, ...] = (
    CSG_PRIMITIVES + AFFINE_OPS + BOOLEAN_OPS + LAMBDA_CAD_ONLY_OPS + ("External",)
)


def uses_loops(term: Term) -> bool:
    """True when the program exposes parameterized repetitive structure.

    "Structure" means a genuine loop: a ``Map``/``Mapi``, a ``Fold`` whose
    combining function is a ``Fun`` (the nested-loop output shape), or a
    ``Repeat``.  A bare ``Fold (Union, Empty, Cons ...)`` over a literal list
    merely re-associates the input and does not count — Table 1's "structure
    exposed" column is about parameterization, not about folds per se.
    """
    for sub in term.subterms():
        if sub.op in ("Map", "Mapi", "Repeat"):
            return True
        if sub.op == "Fold" and len(sub.children) == 3 and sub.children[0].op == "Fun":
            return True
    return False
