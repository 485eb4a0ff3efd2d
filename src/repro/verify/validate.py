"""End-to-end validation of a synthesis result."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cad.evaluator import EvalError, unroll
from repro.lang.term import Term
from repro.obs.trace import NULL_TRACER
from repro.verify.structural import (
    LeafMatcher,
    equivalent_modulo_reordering,
    terms_equal_modulo_epsilon,
)


@dataclass
class ValidationResult:
    """How a synthesized program compared against its input.

    The program is :attr:`valid` when it unrolls without error to a term
    that one of the structural checks accepts: ``exact_match``,
    ``reorder_match`` (which includes the exact match) or ``leaf_match``
    (equal leaf-matrix normal forms, run only when the other two fail).
    ``leaves_compared`` counts the leaf pairs that last check compared.
    """

    unrolled: Optional[Term]
    exact_match: bool
    reorder_match: bool
    leaf_match: bool = False
    leaves_compared: int = 0
    error: Optional[str] = None

    @property
    def check(self) -> str:
        """The cheapest check that accepts: ``exact``, ``reorder``, ``leaf`` or ``none``."""
        if self.error is not None:
            return "none"
        if self.exact_match:
            return "exact"
        if self.reorder_match:
            return "reorder"
        if self.leaf_match:
            return "leaf"
        return "none"

    @property
    def valid(self) -> bool:
        """True when the program unrolls to a term equivalent to the input."""
        return self.check != "none"


def validate_synthesis(
    input_csg: Term,
    synthesized: Term,
    *,
    epsilon: float = 1e-3,
    tracer=None,
) -> ValidationResult:
    """Validate a synthesized program against the input flat CSG.

    Unrolls ``synthesized`` and compares it with ``input_csg`` modulo
    ``epsilon``: exactly, then up to reordering of ``Union``/``Inter``
    operands, then by leaf-matrix normal form, stopping at the first check
    that accepts.  ``tracer`` records the whole check as a ``validate`` span
    naming the accepting check and the number of leaf pairs compared.
    """
    tracer = NULL_TRACER if tracer is None else tracer
    with tracer.span("validate") as span:
        result = _validate_impl(input_csg, synthesized, epsilon)
        if span is not None:
            span.update(
                {
                    "valid": result.valid,
                    "check": result.check,
                    "leaves": result.leaves_compared,
                }
            )
    return result


def _validate_impl(input_csg: Term, synthesized: Term, epsilon: float) -> ValidationResult:
    try:
        unrolled = unroll(synthesized)
    except EvalError as exc:
        return ValidationResult(
            unrolled=None, exact_match=False, reorder_match=False, error=str(exc)
        )

    exact = terms_equal_modulo_epsilon(input_csg, unrolled, epsilon)
    reorder = exact or equivalent_modulo_reordering(input_csg, unrolled, epsilon)
    matcher = LeafMatcher(epsilon)
    leaf = not reorder and matcher.terms_equivalent(input_csg, unrolled)
    return ValidationResult(
        unrolled=unrolled,
        exact_match=exact,
        reorder_match=reorder,
        leaf_match=leaf,
        leaves_compared=matcher.compared,
    )
