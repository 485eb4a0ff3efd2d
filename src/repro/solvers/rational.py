"""Coefficient rationalization.

The closed forms the paper reports are human-readable: ``2 * (i + 1)``,
``360 * i / 60``, ``24 * i - 12``.  A raw least-squares fit over noisy data
returns coefficients like ``1.99999983``, so after fitting we snap each
coefficient to the nearest "nice" rational (small denominator) whenever doing
so keeps the fit within the epsilon tolerance.  This plays the role of Z3
returning exact rational models in the original system.

:func:`nice_round` runs on every coefficient the solvers fit and render, so
it runs :meth:`fractions.Fraction.limit_denominator`'s continued-fraction
algorithm on the float's exact integer ratio directly, without building a
``Fraction``; it returns bit for bit what the ``Fraction`` route returns.
"""

from __future__ import annotations

from typing import Optional


def nice_round(value: float, tolerance: float = 1e-6, max_denominator: int = 720) -> float:
    """Snap ``value`` to a nearby nice rational when it is within ``tolerance``.

    Returns the snapped value as a float (int-valued floats collapse to the
    integer float, e.g. ``2.0000001`` becomes ``2.0``).  When no nice rational
    is close enough, the original value is returned unchanged.  The snapped
    value is the float of ``Fraction(value).limit_denominator(max_denominator)``,
    the closest fraction whose denominator is at most ``max_denominator``
    (``720`` covers every denominator that appears in CAD closed forms built
    from degree steps, 360/n for n up to 720 teeth or cells, while still
    rejecting arbitrary noise).
    """
    if value % 1 == 0:
        # An integer is its own nearest fraction, so skip the search; adding
        # 0.0 turns -0.0 into 0.0, as the float of Fraction(-0.0) does.
        return float(value) + 0.0
    # inf and nan fail the test above and raise here, as Fraction(value) does.
    numerator, denominator = value.as_integer_ratio()
    if max_denominator < 1:
        raise ValueError("max_denominator should be at least 1")
    if denominator <= max_denominator:
        snapped = numerator / denominator
    else:
        # Fraction.limit_denominator: walk the convergents p1/q1 of the
        # continued fraction until the next denominator would exceed the
        # bound, then take the closer of p1/q1 and the last semiconvergent
        # p2/q2 within the bound (p1/q1 on a tie).
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = numerator, denominator
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > max_denominator:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (max_denominator - q0) // q1
        p2, q2 = p0 + k * p1, q0 + k * q1
        # |p1/q1 - x| <= |p2/q2 - x| for x = numerator/denominator, with
        # the positive denominators multiplied out.
        if abs(p1 * denominator - numerator * q1) * q2 <= abs(p2 * denominator - numerator * q2) * q1:
            snapped = p1 / q1
        else:
            snapped = p2 / q2
    if abs(snapped - value) <= tolerance:
        return snapped
    return value


def as_int_if_close(value: float, tolerance: float = 1e-9) -> Optional[int]:
    """Return ``value`` as an int when it is within ``tolerance`` of one."""
    rounded = round(value)
    if abs(value - rounded) <= tolerance:
        return int(rounded)
    return None
