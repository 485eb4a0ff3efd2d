"""Polynomial closed-form fitting under an epsilon tolerance.

The original system asks Z3 for a model of ``a, b(, c)`` with, for each
observation ``x_j`` at index ``i_j``::

    (a*i_j + b) - eps <= x_j <= (a*i_j + b) + eps        (degree 1)
    (a*i_j^2 + b*i_j + c) - eps <= x_j <= ... + eps       (degree 2)

This reproduction runs offline without Z3.  For fixed observations the
question is a bounded linear feasibility problem, and :func:`fit_design`
decides it for every least-squares family (these two and the multilinear
forms of :mod:`repro.solvers.multilinear`) by

1. solving the unconstrained least-squares problem (:func:`least_squares`),
2. snapping each coefficient to a nearby nice rational (Z3's models are exact
   rationals, which is where the paper's readable ``2*(i+1)`` coefficients
   come from), and
3. explicitly checking every residual against ``epsilon`` — first for the
   snapped coefficients, then for the raw least-squares ones.

If neither passes, the constraint system is (almost certainly) infeasible and
we report no solution, exactly as the paper's pipeline would fall through to
the next solver.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.solvers.forms import ConstantForm, LinearForm, QuadraticForm
from repro.solvers.rational import nice_round

#: Tolerance used when snapping fitted coefficients to nice rationals.
#: Fractions with denominator at most 720 lie at most 1/720 apart, so every
#: finite value is within 1/1440 of one, and at this tolerance every value
#: snaps to its closest such fraction: whether a snapped form is kept is
#: decided by its residuals alone, at any epsilon.
SNAP_TOLERANCE = 5e-3

Form = TypeVar("Form")


def fit_constant(values: Sequence[float], epsilon: float) -> Optional[ConstantForm]:
    """Fit a constant function, if all values agree within ``epsilon``."""
    values = list(values)
    if not values:
        return None
    center = nice_round(float(np.mean(values)), tolerance=SNAP_TOLERANCE)
    form = ConstantForm(center)
    if form.satisfies(values, epsilon):
        return form
    # The mean may sit outside the epsilon band even when a feasible constant
    # exists (e.g. one outlier-free tight cluster): try the midrange.
    midrange = (max(values) + min(values)) / 2.0
    form = ConstantForm(nice_round(midrange, tolerance=SNAP_TOLERANCE))
    if form.satisfies(values, epsilon):
        return form
    return None


def least_squares(design: np.ndarray, values: np.ndarray, work: Optional[Counter]) -> np.ndarray:
    """The least-squares solution of ``design @ x = values``.

    ``work``, when given, counts the solve (``lstsq_solves``).
    """
    if work is not None:
        work["lstsq_solves"] += 1
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    return solution


def fit_design(
    design: np.ndarray,
    values: Sequence[float],
    work: Optional[Counter],
    form: Callable[..., Form],
    holds: Callable[[Form], bool],
) -> Optional[Form]:
    """Fit ``form(*coefficients)`` to ``values``, preferring nice coefficients.

    The coefficients solve ``design`` by least squares, one per column.
    Returns the form of the coefficients snapped to nice rationals when it
    ``holds`` (every residual within epsilon), else the form of the raw ones
    when it holds, else ``None``.
    """
    raw = [float(c) for c in least_squares(design, np.asarray(values, dtype=float), work)]
    snapped = form(*(nice_round(c, tolerance=SNAP_TOLERANCE) for c in raw))
    if holds(snapped):
        return snapped
    unsnapped = form(*raw)
    if holds(unsnapped):
        return unsnapped
    return None


def _fit_polynomial(
    values: Sequence[float],
    epsilon: float,
    work: Optional[Counter],
    form: Callable[..., Form],
    degree: int,
) -> Optional[Form]:
    """Fit a polynomial of the index, coefficients highest degree first."""
    values = list(values)
    if len(values) <= degree:
        return None
    design = np.vander(np.arange(len(values), dtype=float), degree + 1)
    return fit_design(design, values, work, form, lambda fitted: fitted.satisfies(values, epsilon))


def fit_linear(
    values: Sequence[float], epsilon: float, work: Optional[Counter] = None
) -> Optional[LinearForm]:
    """Fit ``a*i + b`` within ``epsilon``, preferring nice coefficients.

    ``work``, when given, counts the least-squares solve (``lstsq_solves``).
    """
    return _fit_polynomial(values, epsilon, work, LinearForm, 1)


def fit_quadratic(
    values: Sequence[float], epsilon: float, work: Optional[Counter] = None
) -> Optional[QuadraticForm]:
    """Fit ``a*i^2 + b*i + c`` within ``epsilon``, preferring nice coefficients.

    ``work``, when given, counts the least-squares solve (``lstsq_solves``).
    """
    return _fit_polynomial(values, epsilon, work, QuadraticForm, 2)
