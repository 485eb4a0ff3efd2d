"""Multilinear closed forms over several loop indices.

Nested-loop inference (paper Section 5) pairs each list element with a tuple
of loop indices (from the m-index-sets) and asks for a closed form of those
indices.  The forms that arise in CAD grids are affine in each index —
``24*i - 12``, ``5 + 10*j``, ``2 - 4*i`` — so the solver fits

    value = a_1*i_1 + a_2*i_2 + ... + a_m*i_m + b

through the shared least-squares path of the single-index polynomial
solvers (:func:`repro.solvers.polynomial.fit_design`): least squares, snap
the coefficients to nice rationals, and accept the fit only when every
residual is within the epsilon tolerance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cad.build import add, mul, sub
from repro.lang.term import Term
from repro.solvers.forms import coefficient_term
from repro.solvers.polynomial import fit_design
from repro.solvers.rational import nice_round


@dataclass
class MultilinearForm:
    """``sum_k coefficients[k] * index_k + intercept``."""

    coefficients: Tuple[float, ...]
    intercept: float
    kind: str = "d1"

    def predict(self, indices: Sequence[int]) -> float:
        return (
            sum(a * i for a, i in zip(self.coefficients, indices)) + self.intercept
        )

    def max_residual(
        self, index_tuples: Sequence[Sequence[int]], values: Sequence[float]
    ) -> float:
        return max(
            (abs(self.predict(t) - v) for t, v in zip(index_tuples, values)),
            default=0.0,
        )

    def satisfies(
        self,
        index_tuples: Sequence[Sequence[int]],
        values: Sequence[float],
        epsilon: float,
    ) -> bool:
        return self.max_residual(index_tuples, values) <= epsilon

    def to_term(self, index_vars: Sequence[Term]) -> Term:
        """Render over the given index variable terms (one per loop level)."""
        if len(index_vars) != len(self.coefficients):
            raise ValueError("index variable count does not match coefficients")
        term: Optional[Term] = None
        for coefficient, index in zip(self.coefficients, index_vars):
            coefficient = nice_round(coefficient)
            if coefficient == 0.0:
                continue
            piece = index if coefficient == 1.0 else mul(coefficient_term(coefficient), index)
            term = piece if term is None else add(term, piece)
        intercept = nice_round(self.intercept)
        if term is None:
            return coefficient_term(intercept)
        if intercept == 0.0:
            return term
        if intercept < 0.0:
            return sub(term, coefficient_term(-intercept))
        return add(term, coefficient_term(intercept))


def fit_multilinear(
    index_tuples: Sequence[Sequence[int]],
    values: Sequence[float],
    epsilon: float,
    work: Optional[Counter] = None,
) -> Optional[MultilinearForm]:
    """Fit an affine function of the loop indices within ``epsilon``.

    ``work``, when given, counts the least-squares solve (``lstsq_solves``).
    """
    if not index_tuples or len(index_tuples) != len(values):
        return None
    arity = len(index_tuples[0])
    if any(len(t) != arity for t in index_tuples):
        raise ValueError("inconsistent index tuple arity")
    design = np.column_stack(
        [np.asarray([t[k] for t in index_tuples], dtype=float) for k in range(arity)]
        + [np.ones(len(index_tuples))]
    )
    return fit_design(
        design,
        values,
        work,
        lambda *solution: MultilinearForm(solution[:-1], solution[-1]),
        lambda form: form.satisfies(index_tuples, values, epsilon),
    )
