"""The closed-form solvers as they were before they were made cheaper.

``solve_component``, the polynomial fits (``fit_constant``, ``fit_linear``,
``fit_quadratic``), the trigonometric fit (``fit_sinusoid`` and its
frequency scan and refinement) and ``nice_round`` are kept here verbatim,
so ``tests/test_solver_oracle.py`` can run both designs on generated
columns and require the same form type, the same ``repr`` of every
coefficient, the same R² and the same rendered term.  The forms themselves
(:mod:`repro.solvers.forms`) are shared: only the code that fits, filters
and ranks them is the oracle's.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.forms import (
    ClosedForm,
    ConstantForm,
    LinearForm,
    QuadraticForm,
    RotationForm,
    SinusoidForm,
)

# ---------------------------------------------------------------------------
# Coefficient rationalization (was repro.solvers.rational)
# ---------------------------------------------------------------------------


def rationalize(value: float, max_denominator: int = 720) -> Fraction:
    """The closest fraction to ``value`` with a bounded denominator.

    ``720`` covers every denominator that appears in CAD closed forms built
    from degree steps (360/n for n up to 720 teeth/cells) while still
    rejecting arbitrary noise.
    """
    return Fraction(value).limit_denominator(max_denominator)


def nice_round(value: float, tolerance: float = 1e-6, max_denominator: int = 720) -> float:
    """Snap ``value`` to a nearby nice rational when it is within ``tolerance``.

    Returns the snapped value as a float (int-valued floats collapse to the
    integer float, e.g. ``2.0000001`` becomes ``2.0``).  When no nice rational
    is close enough, the original value is returned unchanged.
    """
    if value % 1 == 0:
        # An integer is its own nearest fraction, so skip the search; adding
        # 0.0 turns -0.0 into 0.0, as the float of Fraction(-0.0) does.
        # (inf and nan fail the test and raise in Fraction, as before.)
        return float(value) + 0.0
    candidate = rationalize(value, max_denominator)
    snapped = float(candidate)
    if abs(snapped - value) <= tolerance:
        return snapped
    return value


def as_int_if_close(value: float, tolerance: float = 1e-9) -> Optional[int]:
    """Return ``value`` as an int when it is within ``tolerance`` of one."""
    rounded = round(value)
    if abs(value - rounded) <= tolerance:
        return int(rounded)
    return None


# ---------------------------------------------------------------------------
# Polynomial fits (was repro.solvers.polynomial)
# ---------------------------------------------------------------------------

_SNAP_TOLERANCE = 5e-3


def fit_constant(values: Sequence[float], epsilon: float) -> Optional[ConstantForm]:
    """Fit a constant function, if all values agree within ``epsilon``."""
    values = list(values)
    if not values:
        return None
    center = nice_round(float(np.mean(values)), tolerance=_SNAP_TOLERANCE)
    form = ConstantForm(center)
    if form.satisfies(values, epsilon):
        return form
    # The mean may sit outside the epsilon band even when a feasible constant
    # exists (e.g. one outlier-free tight cluster): try the midrange.
    midrange = (max(values) + min(values)) / 2.0
    form = ConstantForm(nice_round(midrange, tolerance=_SNAP_TOLERANCE))
    if form.satisfies(values, epsilon):
        return form
    return None


def _least_squares(indices: np.ndarray, values: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial coefficients, highest degree first."""
    vandermonde = np.vander(indices, degree + 1)
    coefficients, *_ = np.linalg.lstsq(vandermonde, values, rcond=None)
    return coefficients


def fit_linear(values: Sequence[float], epsilon: float) -> Optional[LinearForm]:
    """Fit ``a*i + b`` within ``epsilon``, preferring nice coefficients."""
    values = list(values)
    if len(values) < 2:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)
    a_raw, b_raw = _least_squares(indices, observations, 1)

    snapped = LinearForm(
        nice_round(float(a_raw), tolerance=max(_SNAP_TOLERANCE, epsilon)),
        nice_round(float(b_raw), tolerance=max(_SNAP_TOLERANCE, epsilon)),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    raw = LinearForm(float(a_raw), float(b_raw))
    if raw.satisfies(values, epsilon):
        return raw
    return None


def fit_quadratic(values: Sequence[float], epsilon: float) -> Optional[QuadraticForm]:
    """Fit ``a*i^2 + b*i + c`` within ``epsilon``, preferring nice coefficients."""
    values = list(values)
    if len(values) < 3:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)
    a_raw, b_raw, c_raw = _least_squares(indices, observations, 2)

    snap = max(_SNAP_TOLERANCE, epsilon)
    snapped = QuadraticForm(
        nice_round(float(a_raw), tolerance=snap),
        nice_round(float(b_raw), tolerance=snap),
        nice_round(float(c_raw), tolerance=snap),
    )
    if snapped.satisfies(values, epsilon):
        return snapped
    raw = QuadraticForm(float(a_raw), float(b_raw), float(c_raw))
    if raw.satisfies(values, epsilon):
        return raw
    return None


# ---------------------------------------------------------------------------
# Trigonometric fit (was repro.solvers.trig)
# ---------------------------------------------------------------------------


def _solve_fixed_frequency(
    indices: np.ndarray, values: np.ndarray, frequency_degrees: float
) -> Tuple[float, float, float, float]:
    """Best (offset, amplitude, phase_degrees, residual) for a fixed frequency."""
    radians = np.radians(frequency_degrees * indices)
    design = np.column_stack([np.ones_like(indices), np.sin(radians), np.cos(radians)])
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


def _refine_frequency(
    indices: np.ndarray, values: np.ndarray, frequency: float, rounds: int = 25
) -> float:
    """Local search refinement of the frequency around an initial guess."""
    best_frequency = frequency
    _, _, _, best_residual = _solve_fixed_frequency(indices, values, frequency)
    step = max(frequency * 0.05, 0.5)
    for _ in range(rounds):
        improved = False
        for candidate in (best_frequency - step, best_frequency + step):
            if candidate <= 0.0 or candidate > 720.0:
                continue
            _, _, _, residual = _solve_fixed_frequency(indices, values, candidate)
            if residual < best_residual - 1e-12:
                best_residual = residual
                best_frequency = candidate
                improved = True
        if not improved:
            step /= 2.0
            if step < 1e-6:
                break
    return best_frequency


def fit_sinusoid(
    values: Sequence[float],
    epsilon: float,
    *,
    extra_frequencies: Iterable[float] = (),
) -> Optional[SinusoidForm]:
    """Fit ``offset + a*sin(b*i + c)`` within ``epsilon`` (degrees).

    Returns ``None`` when no candidate frequency produces a fit within the
    tolerance, or when the data is too short to constrain the model (fewer
    than 4 points: any 3 points lie on some sinusoid, which would make the
    solver claim spurious structure).
    """
    values = list(values)
    if len(values) < 4:
        return None
    indices = np.arange(len(values), dtype=float)
    observations = np.asarray(values, dtype=float)

    best: Optional[SinusoidForm] = None
    best_residual = math.inf
    candidates = list(extra_frequencies) + _candidate_frequencies(len(values))
    for frequency in candidates:
        offset, amplitude, phase, residual = _solve_fixed_frequency(
            indices, observations, frequency
        )
        if residual < best_residual:
            best_residual = residual
            best = SinusoidForm(amplitude, frequency, phase, offset)

    if best is None:
        return None

    refined_frequency = _refine_frequency(indices, observations, best.frequency)
    offset, amplitude, phase, residual = _solve_fixed_frequency(
        indices, observations, refined_frequency
    )
    if residual < best_residual:
        best = SinusoidForm(amplitude, refined_frequency, phase, offset)
        best_residual = residual

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


# ---------------------------------------------------------------------------
# Model selection (was repro.solvers.closed_form)
# ---------------------------------------------------------------------------


@dataclass
class ComponentSolution:
    """A feasible closed form together with its goodness of fit."""

    form: ClosedForm
    r_squared: float

    @property
    def kind(self) -> str:
        return self.form.kind


def _rotation_normalize(
    form: LinearForm, values: Sequence[float], epsilon: float
) -> Optional[RotationForm]:
    """Convert a linear rotation fit into the periodic 360/n shape."""
    step = as_int_if_close(form.a, tolerance=max(1e-6, epsilon))
    if step is None or step == 0:
        return None
    if 360 % abs(step) != 0:
        return None
    count = 360 // abs(step)
    if count < 2:
        return None
    intercept = as_int_if_close(form.b, tolerance=max(1e-6, epsilon))
    if intercept is None:
        return None
    if intercept == 0:
        candidate = RotationForm(count=count, shift=0)
    elif intercept == step:
        candidate = RotationForm(count=count, shift=1)
    else:
        candidate = RotationForm(count=count, shift=0, offset=float(intercept))
    if step < 0:
        # Negative steps stay as plain linear forms; a negative "count" would
        # read worse than -6*i.
        return None
    if candidate.satisfies(values, epsilon):
        return candidate
    return None


def solve_component(
    values: Sequence[float],
    epsilon: float = 1e-3,
    *,
    is_rotation: bool = False,
) -> Optional[ComponentSolution]:
    """Find the best closed form for one vector component.

    Every fit must hold within ``epsilon`` on every value (the paper's
    tolerance, 0.001 by default).
    """
    values = [float(v) for v in values]
    if not values:
        return None

    # The paper tries the polynomial families first and only falls back to
    # the trigonometric solver when no polynomial fits (Section 4.1).  This
    # ordering also keeps noisy-but-constant data from being "explained" by a
    # sinusoid that interpolates the noise.
    candidates: List[ClosedForm] = []

    constant = fit_constant(values, epsilon)
    if constant is not None:
        candidates.append(constant)

    linear = fit_linear(values, epsilon)
    if linear is not None:
        if is_rotation:
            rotation = _rotation_normalize(linear, values, epsilon)
            if rotation is not None:
                candidates.append(rotation)
        candidates.append(linear)

    quadratic = fit_quadratic(values, epsilon)
    if quadratic is not None:
        candidates.append(quadratic)

    feasible = [c for c in candidates if c.satisfies(values, epsilon)]

    if not feasible and len(set(values)) >= 2:
        sinusoid = fit_sinusoid(values, epsilon)
        if sinusoid is not None and sinusoid.satisfies(values, epsilon):
            feasible = [sinusoid]

    if not feasible:
        return None

    def rank(form: ClosedForm) -> Tuple[float, int, int]:
        # Maximize R^2 (so sort on its negation), then — for rotation
        # components — prefer the periodic 360/n shape (the paper's rotation
        # heuristic), then prefer simpler terms.
        rotation_preference = 0 if (is_rotation and isinstance(form, RotationForm)) else 1
        return (-round(form.r_squared(values), 9), rotation_preference, form.complexity())

    best = min(feasible, key=rank)
    return ComponentSolution(form=best, r_squared=best.r_squared(values))
