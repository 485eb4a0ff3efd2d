"""Coefficient rationalization.

The closed forms the paper reports are human-readable: ``2 * (i + 1)``,
``360 * i / 60``, ``24 * i - 12``.  A raw least-squares fit over noisy data
returns coefficients like ``1.99999983``, so after fitting we snap each
coefficient to the nearest "nice" rational (small denominator) whenever doing
so keeps the fit within the epsilon tolerance.  This plays the role of Z3
returning exact rational models in the original system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


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
