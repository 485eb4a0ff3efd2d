"""Trigonometric closed-form fitting: ``offset + a * sin(b*i + c)``.

Z3 does not support transcendental functions, so the paper implements a
dedicated non-linear least-squares solver (iterative SVD refinement) for the
sinusoidal family and judges fits by R².  We fit the same family with numpy
and hold it, like every other family, to the epsilon tolerance:

* for a *fixed* frequency ``b`` the model is linear in
  ``(offset, a*cos(c), a*sin(c))`` because
  ``a*sin(b*i + c) = a*cos(c)*sin(b*i) + a*sin(c)*cos(b*i)``, so we solve
  that linear system by SVD (:func:`repro.solvers.polynomial.least_squares`);
* the frequency itself is found by scanning the natural candidate
  frequencies of a length-``n`` design (multiples of ``360/n`` and of
  ``360/(n+1)``, plus harmonics) and then refining the best candidate with a
  local step-halving search.

The scan's candidate frequencies depend only on the list length, so their
design matrices are built once per length and kept in a small LRU cache
(:func:`_scan_designs`).  A refinement step must beat the best residual by
``1e-12``; when the scan's residual is already at most that, no step can,
and the refinement is skipped.  Both shortcuts leave every fit bit for bit
as it was.

Most columns the solver is asked about hold no sinusoid at all, and a
linear recurrence rejects those before the scan.  Integer samples of any
sinusoid ``s[i] = offset + a*sin(b*i + c)`` obey Prony's linear prediction

    s[i+1] + s[i-1] = alpha*s[i] + beta,   alpha = 2*cos(b),
                                           beta = 2*offset*(1 - cos(b)).

If every value is within ``epsilon`` of some sinusoid, ``y[i] = s[i] + e[i]``
with ``|e[i]| <= epsilon``, then at that sinusoid's ``(alpha, beta)`` each of
the ``n - 2`` equations is off by ``e[i+1] + e[i-1] - alpha*e[i]``, at most
``(2 + |alpha|)*epsilon <= 4*epsilon``; so the least-squares residual of the
recurrence over ``(alpha, beta)`` has a 2-norm of at most
``4*epsilon*sqrt(n - 2)``.  A column above that bound has no sinusoid
within epsilon for the scan to find (:func:`_recurrence_rules_out`).  The
bound gets a float slack of ``1e-9 * (max|y| + 1) * n``: the values, the
forms' predictions and the solve are all rounded, and a fitted form is
held to epsilon on its float predictions.  The recurrence is solved on the
values centered by their mean and divided by their largest centered
magnitude, and its residual is scaled back: the raw ``[y[i], 1]`` design
has columns whose scales differ by the offset, and for offsets from about
1e9 up ``np.linalg.lstsq`` drops its constant column as numerically
rank-deficient and then rejects sinusoids.  The filter changes no answer,
only how soon a hopeless column gets it.

Phases and frequencies are reported in degrees, matching the programs the
paper prints (``Sin (90 * i + 315)``).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.forms import SinusoidForm
from repro.solvers.polynomial import SNAP_TOLERANCE, least_squares
from repro.solvers.rational import nice_round

#: A refinement step is taken only when it lowers the residual by this much.
_REFINE_MARGIN = 1e-12

#: The recurrence filter's float slack, per value and unit of magnitude.
_RECURRENCE_SLACK = 1e-9

#: (offset, amplitude, phase in degrees, max residual) of one fixed-frequency fit.
_Fit = Tuple[float, float, float, float]


def _design(indices: np.ndarray, frequency_degrees: float) -> np.ndarray:
    """The ``[1, sin(b*i), cos(b*i)]`` design matrix of one frequency."""
    radians = np.radians(frequency_degrees * indices)
    return np.column_stack([np.ones_like(indices), np.sin(radians), np.cos(radians)])


def _solve_design(design: np.ndarray, values: np.ndarray, work: Counter) -> _Fit:
    """Best (offset, amplitude, phase_degrees, residual) for one design matrix."""
    solution = least_squares(design, values, work)
    offset, coefficient_sin, coefficient_cos = solution
    amplitude = math.hypot(coefficient_sin, coefficient_cos)
    phase = math.degrees(math.atan2(coefficient_cos, coefficient_sin)) % 360.0
    residual = float(np.max(np.abs(design @ solution - values))) if len(values) else 0.0
    return float(offset), float(amplitude), phase, residual


def _candidate_frequencies(count: int) -> List[float]:
    """Natural frequency candidates for a length-``count`` repetitive design."""
    candidates: List[float] = []
    for divisor in (count, count + 1, count - 1, 2 * count):
        if divisor and divisor > 0:
            base = 360.0 / divisor
            for harmonic in (1, 2, 3, 4):
                candidates.append(base * harmonic)
    # Common CAD angles regardless of the list length.
    candidates.extend([30.0, 36.0, 45.0, 60.0, 72.0, 90.0, 120.0, 180.0, 270.0])
    unique: List[float] = []
    for candidate in candidates:
        candidate = candidate % 360.0 or 360.0
        if 0.0 < candidate <= 360.0 and all(abs(candidate - c) > 1e-9 for c in unique):
            unique.append(candidate)
    return unique


@lru_cache(maxsize=64)
def _scan_designs(count: int) -> Tuple[Tuple[float, np.ndarray], ...]:
    """``(frequency, design)`` for every candidate frequency of a length.

    The arrays are shared by every fit of that length, so they are made
    read-only.
    """
    indices = np.arange(count, dtype=float)
    designs = []
    for frequency in _candidate_frequencies(count):
        design = _design(indices, frequency)
        design.setflags(write=False)
        designs.append((frequency, design))
    return tuple(designs)


def _refine_frequency(
    indices: np.ndarray,
    values: np.ndarray,
    frequency: float,
    residual: float,
    work: Counter,
    rounds: int = 25,
) -> Optional[Tuple[float, _Fit]]:
    """Local search refinement of the frequency around an initial guess.

    ``residual`` is the initial guess's own.  Returns the best frequency
    and its fit, or ``None`` when no step improved on the guess.
    """
    best: Optional[Tuple[float, _Fit]] = None
    best_frequency, best_residual = frequency, residual
    step = max(frequency * 0.05, 0.5)
    for _ in range(rounds):
        improved = False
        for candidate in (best_frequency - step, best_frequency + step):
            if candidate <= 0.0 or candidate > 720.0:
                continue
            fit = _solve_design(_design(indices, candidate), values, work)
            if fit[3] < best_residual - _REFINE_MARGIN:
                best_residual = fit[3]
                best_frequency = candidate
                best = (candidate, fit)
                improved = True
        if not improved:
            step /= 2.0
            if step < 1e-6:
                break
    return best


def _recurrence_rules_out(observations: np.ndarray, epsilon: float, work: Counter) -> bool:
    """True when no sinusoid lies within ``epsilon`` of every value.

    That is, when the least-squares residual of the recurrence
    ``y[i+1] + y[i-1] = alpha*y[i] + beta`` exceeds its bound plus the float
    slack (module docstring).  It is solved on the values centered by their
    mean and divided by their largest centered magnitude, which divides the
    minimum residual by that magnitude, and the residual is scaled back.
    Equal values fit every recurrence and non-finite ones prove nothing:
    neither is solved, and neither is ruled out.
    """
    count = len(observations)
    centered = observations - observations.mean()
    scale = float(np.max(np.abs(centered)))
    if not 0.0 < scale < math.inf:
        return False
    scaled = centered / scale
    design = np.column_stack([scaled[1:-1], np.ones(count - 2)])
    targets = scaled[2:] + scaled[:-2]
    solution = least_squares(design, targets, work)
    residual = float(np.linalg.norm(design @ solution - targets)) * scale
    bound = 4.0 * epsilon * math.sqrt(count - 2)
    slack = _RECURRENCE_SLACK * (float(np.max(np.abs(observations))) + 1.0) * count
    return residual > bound + slack


def fit_sinusoid(
    values: Sequence[float],
    epsilon: float,
    *,
    work: Optional[Counter] = None,
) -> Optional[SinusoidForm]:
    """Fit ``offset + a*sin(b*i + c)`` within ``epsilon`` (degrees).

    Returns ``None`` when no candidate frequency produces a fit within the
    tolerance, or when the data is too short to constrain the model (fewer
    than 4 points: any 3 points lie on some sinusoid, which would make the
    solver claim spurious structure).

    A column of 5 or more values whose linear recurrence (module docstring)
    leaves a residual above its bound holds no sinusoid within epsilon, and
    is rejected before the frequency scan.  4-point columns go straight to
    the scan: their recurrence is 2 equations in its 2 unknowns, which some
    ``(alpha, beta)`` solves exactly unless ``y[1] == y[2]``, so it could
    reject only those.  They are fitted at all, although a 4-parameter
    sinusoid passes near most 4 points, because hc-bits' best two programs
    in Table 1 are 4-point sinusoids; refusing such fits changes all five
    of its ranked programs.

    ``work``, when given, counts the fit (``sinusoid_fits``), a recurrence
    rejection (``sinusoid_rejections``) and the least-squares solves, the
    recurrence's included (``lstsq_solves``).
    """
    values = list(values)
    if len(values) < 4:
        return None
    work = Counter() if work is None else work
    work["sinusoid_fits"] += 1
    observations = np.asarray(values, dtype=float)
    if len(values) >= 5 and _recurrence_rules_out(observations, epsilon, work):
        work["sinusoid_rejections"] += 1
        return None
    indices = np.arange(len(values), dtype=float)

    best: Optional[SinusoidForm] = None
    best_residual = math.inf
    for frequency, design in _scan_designs(len(values)):
        offset, amplitude, phase, residual = _solve_design(design, observations, work)
        if residual < best_residual:
            best_residual = residual
            best = SinusoidForm(amplitude, frequency, phase, offset)

    if best is None:
        return None

    # No step can lower a residual of at most the margin by the margin.
    if best_residual > _REFINE_MARGIN:
        refined = _refine_frequency(indices, observations, best.frequency, best_residual, work)
        if refined is not None:
            frequency, (offset, amplitude, phase, _) = refined
            best = SinusoidForm(amplitude, frequency, phase, offset)

    # Snap the parameters to nice values when that keeps the fit feasible.
    # Only the snapped phase is wrapped; the raw form is returned as fitted.
    snapped = SinusoidForm(
        nice_round(best.amplitude, tolerance=SNAP_TOLERANCE),
        nice_round(best.frequency, tolerance=SNAP_TOLERANCE),
        nice_round(best.phase, tolerance=SNAP_TOLERANCE) % 360.0,
        nice_round(best.offset, tolerance=SNAP_TOLERANCE),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    if best.satisfies(values, epsilon):
        return best
    return None
