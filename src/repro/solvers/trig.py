"""Trigonometric closed-form fitting: ``offset + a * sin(b*i + c)``.

Z3 does not support transcendental functions, so the paper implements a
dedicated non-linear least-squares solver (iterative SVD refinement) for the
sinusoidal family and judges fits by R².  We do the same with numpy:

* for a *fixed* frequency ``b`` the model is linear in
  ``(offset, a*cos(c), a*sin(c))`` because
  ``a*sin(b*i + c) = a*cos(c)*sin(b*i) + a*sin(c)*cos(b*i)``, so we solve
  that linear system by SVD (``lstsq``);
* the frequency itself is found by scanning the natural candidate
  frequencies of a length-``n`` design (multiples of ``360/n`` and of
  ``360/(n+1)``, plus harmonics) and then refining the best candidate with a
  local Gauss–Newton iteration.

The scan's candidate frequencies depend only on the list length, so their
design matrices are built once per length and kept in a small LRU cache
(:func:`_scan_designs`).  A refinement step must beat the best residual by
``1e-12``; when the scan's residual is already at most that, no step can,
and the refinement is skipped.  Both shortcuts leave every fit bit for bit
as it was.

Phases and frequencies are reported in degrees, matching the programs the
paper prints (``Sin (90 * i + 315)``).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.forms import SinusoidForm
from repro.solvers.rational import nice_round

#: A refinement step is taken only when it lowers the residual by this much.
_REFINE_MARGIN = 1e-12

#: (offset, amplitude, phase in degrees, max residual) of one fixed-frequency fit.
_Fit = Tuple[float, float, float, float]


def _design(indices: np.ndarray, frequency_degrees: float) -> np.ndarray:
    """The ``[1, sin(b*i), cos(b*i)]`` design matrix of one frequency."""
    radians = np.radians(frequency_degrees * indices)
    return np.column_stack([np.ones_like(indices), np.sin(radians), np.cos(radians)])


def _solve_design(design: np.ndarray, values: np.ndarray, work: Counter) -> _Fit:
    """Best (offset, amplitude, phase_degrees, residual) for one design matrix."""
    work["lstsq_solves"] += 1
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    offset, coefficient_sin, coefficient_cos = solution
    amplitude = math.hypot(coefficient_sin, coefficient_cos)
    phase = math.degrees(math.atan2(coefficient_cos, coefficient_sin)) % 360.0
    predictions = design @ solution
    residual = float(np.max(np.abs(predictions - values))) if len(values) else 0.0
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


def fit_sinusoid(
    values: Sequence[float],
    epsilon: float,
    *,
    extra_frequencies: Iterable[float] = (),
    work: Optional[Counter] = None,
) -> Optional[SinusoidForm]:
    """Fit ``offset + a*sin(b*i + c)`` within ``epsilon`` (degrees).

    Returns ``None`` when no candidate frequency produces a fit within the
    tolerance, or when the data is too short to constrain the model (fewer
    than 4 points: any 3 points lie on some sinusoid, which would make the
    solver claim spurious structure).  ``work``, when given, counts the fit
    (``sinusoid_fits``) and its least-squares solves (``lstsq_solves``).
    """
    values = list(values)
    if len(values) < 4:
        return None
    work = Counter() if work is None else work
    work["sinusoid_fits"] += 1
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)

    best: Optional[SinusoidForm] = None
    best_residual = math.inf
    scan = [(frequency, _design(indices, frequency)) for frequency in extra_frequencies]
    scan.extend(_scan_designs(len(values)))
    for frequency, design in scan:
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
    snapped = SinusoidForm(
        nice_round(best.amplitude, tolerance=max(5e-3, epsilon)),
        nice_round(best.frequency, tolerance=max(5e-3, epsilon)),
        nice_round(best.phase, tolerance=max(5e-3, epsilon)) % 360.0,
        nice_round(best.offset, tolerance=max(5e-3, epsilon)),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    if best.satisfies(values, epsilon):
        return best
    return None
