"""Closed-form function classes.

A :class:`ClosedForm` is an inferred function of the list index ``i``.  It
predicts values (for the epsilon check, and R² when two forms compete),
renders itself as a LambdaCAD arithmetic term (for the synthesized program),
and carries the Table 1 label of its class (``d1``, ``d2``, or ``theta``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.cad.build import add, div, mul, sin, sub
from repro.lang.term import Term
from repro.solvers.rational import as_int_if_close, nice_round


def coefficient_term(value: float) -> Term:
    """A numeric literal term, preferring exact ints for integral values."""
    as_int = as_int_if_close(value, tolerance=1e-9)
    if as_int is not None:
        return Term.num(as_int)
    return Term.num(value)


def _simplified_linear_term(a: float, b: float, index: Term) -> Term:
    """Render ``a*i + b`` with the obvious simplifications applied."""
    a = nice_round(a)
    b = nice_round(b)
    if a == 0.0:
        return coefficient_term(b)
    # Prefer the a*(i+1) form when b == a: this is how the paper prints
    # formulas like 2 * (i + 1).
    if b == a:
        shifted = add(index, Term.num(1))
        if a == 1.0:
            return shifted
        return mul(coefficient_term(a), shifted)
    scaled = index if a == 1.0 else mul(coefficient_term(a), index)
    if b == 0.0:
        return scaled
    if b < 0.0:
        return sub(scaled, coefficient_term(-b))
    return add(scaled, coefficient_term(b))


class ClosedForm:
    """Base class for inferred closed forms of the index."""

    #: Table 1 function-class label: "d1", "d2", or "theta".
    kind: str = "?"

    def predict(self, index: int) -> float:
        raise NotImplementedError

    def max_residual(self, values: Sequence[float]) -> float:
        """Largest absolute error against the observed values."""
        return max(
            (abs(self.predict(i) - v) for i, v in enumerate(values)), default=0.0
        )

    def r_squared(self, values: Sequence[float]) -> float:
        """Coefficient of determination against the observed values."""
        values = list(values)
        if not values:
            return 1.0
        mean = sum(values) / len(values)
        ss_total = sum((v - mean) ** 2 for v in values)
        ss_residual = sum((self.predict(i) - v) ** 2 for i, v in enumerate(values))
        if ss_total == 0.0:
            return 1.0 if ss_residual <= 1e-18 else 0.0
        return 1.0 - ss_residual / ss_total

    def satisfies(self, values: Sequence[float], epsilon: float) -> bool:
        """True when every observation is within ``epsilon`` of the form."""
        return self.max_residual(values) <= epsilon

    def to_term(self, index: Term) -> Term:
        """Render the form as a LambdaCAD arithmetic expression of ``index``."""
        raise NotImplementedError

    def complexity(self) -> int:
        """Node count of the rendered term (used to break ties)."""
        return self.to_term(Term("i")).size()


@dataclass
class ConstantForm(ClosedForm):
    """A constant function ``c`` (the function for an unvarying component)."""

    value: float
    kind: str = "d1"

    def predict(self, index: int) -> float:
        return self.value

    def to_term(self, index: Term) -> Term:
        return coefficient_term(nice_round(self.value))


@dataclass
class LinearForm(ClosedForm):
    """A first-degree polynomial ``a*i + b``."""

    a: float
    b: float
    kind: str = "d1"

    def predict(self, index: int) -> float:
        return self.a * index + self.b

    def to_term(self, index: Term) -> Term:
        return _simplified_linear_term(self.a, self.b, index)


@dataclass
class RotationForm(ClosedForm):
    """A rotation-normalized linear form ``360 * (i + shift) / count``.

    The paper's rotation heuristic (Section 4.1, "Rotation") converts linear
    fits over rotation angles into the periodic ``2*pi*(i+1)/b`` shape, which
    exposes the loop bound (e.g. the tooth count 60) directly in the program.
    """

    count: int
    shift: int = 0  # 0 renders as i, 1 renders as (i + 1)
    offset: float = 0.0
    kind: str = "d1"

    def predict(self, index: int) -> float:
        return 360.0 * (index + self.shift) / self.count + self.offset

    def to_term(self, index: Term) -> Term:
        shifted = index if self.shift == 0 else add(index, Term.num(self.shift))
        core = div(mul(Term.num(360), shifted), Term.num(self.count))
        if self.offset == 0.0:
            return core
        return add(core, coefficient_term(nice_round(self.offset)))


@dataclass
class QuadraticForm(ClosedForm):
    """A second-degree polynomial ``a*i^2 + b*i + c``."""

    a: float
    b: float
    c: float
    kind: str = "d2"

    def predict(self, index: int) -> float:
        return self.a * index * index + self.b * index + self.c

    def to_term(self, index: Term) -> Term:
        a = nice_round(self.a)
        quadratic_part = mul(coefficient_term(a), mul(index, index))
        if a == 1.0:
            quadratic_part = mul(index, index)
        linear_part = _simplified_linear_term(self.b, self.c, index)
        if a == 0.0:
            return linear_part
        if nice_round(self.b) == 0.0 and nice_round(self.c) == 0.0:
            return quadratic_part
        return add(quadratic_part, linear_part)


@dataclass
class SinusoidForm(ClosedForm):
    """A trigonometric form ``offset + a * sin(b*i + c)`` (degrees)."""

    amplitude: float
    frequency: float
    phase: float
    offset: float = 0.0
    kind: str = "theta"

    def predict(self, index: int) -> float:
        angle = math.radians(self.frequency * index + self.phase)
        return self.offset + self.amplitude * math.sin(angle)

    def to_term(self, index: Term) -> Term:
        frequency = nice_round(self.frequency, tolerance=1e-6)
        phase = nice_round(self.phase, tolerance=1e-6) % 360.0
        amplitude = nice_round(self.amplitude, tolerance=1e-6)
        offset = nice_round(self.offset, tolerance=1e-6)
        angle = _simplified_linear_term(frequency, phase, index)
        wave = sin(angle)
        if amplitude != 1.0:
            wave = mul(coefficient_term(amplitude), wave)
        if offset == 0.0:
            return wave
        return add(coefficient_term(offset), wave)
