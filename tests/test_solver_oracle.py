"""The closed-form solvers against the designs they replaced.

``tests/solver_oracle.py`` keeps ``solve_component``, the polynomial and
trigonometric fits and ``nice_round`` as they were before the solvers
skipped work their answer does not need: the constant shortcut, the
feasibility re-check, the second R² and ranking a lone form, the
``Fraction`` route of ``nice_round``, the refinement of an exact sinusoid
scan and the per-fit scan design matrices.  Both designs run on generated
columns and must agree on the form type, the ``repr`` of every coefficient,
R² and the rendered term.

Each shortcut has a family here that tells its mutant apart from the
oracle (checked on scratch copies of the solvers):

* constant shortcut taken when the values agree within epsilon instead of
  exactly — killed by ``near_constant`` columns (noise below epsilon),
  where a line fits better than the constant;
* a lone feasible form reported with R² 1.0 — killed by noisy columns;
* a fit returning its raw form unchecked (which the dropped re-check used
  to catch) — killed by ``random`` columns;
* ``nice_round`` walking one convergent too few (``>=`` for ``>``) or
  never taking the semiconvergent — killed by
  ``test_nice_round_matches_limit_denominator``;
* refinement skipped below 1e-3 instead of the 1e-12 margin — killed by
  ``noisy_sinusoid`` columns;
* scan designs built for another length's frequencies — killed by
  ``exact_sinusoid`` columns.

The shortcut stays off rotation columns, where a ``RotationForm`` would
outrank an equally good constant.  Taking it there too survives every
family here (no all-equal column made a ``RotationForm`` arise), which is
not a proof that none can, so the full path keeps them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import solver_oracle as oracle
from repro.lang.term import Term
from repro.solvers import closed_form
from repro.solvers.rational import nice_round
from repro.solvers.trig import fit_sinusoid

_INDEX = Term("i")

_lengths = st.integers(1, 60)
_epsilons = st.sampled_from([1e-3, 1e-3, 1e-2, 0.0])


def _describe(solution):
    """Everything a solution exposes: type, coefficients, R², rendered term."""
    if solution is None:
        return None
    form = getattr(solution, "form", solution)
    coefficients = tuple(
        (name, repr(value)) for name, value in vars(form).items() if name != "kind"
    )
    r_squared = repr(getattr(solution, "r_squared", None))
    return type(form).__name__, coefficients, r_squared, str(form.to_term(_INDEX))


def _same_solution(values, epsilon):
    for is_rotation in (False, True):
        expected = oracle.solve_component(values, epsilon, is_rotation=is_rotation)
        actual = closed_form.solve_component(values, epsilon, is_rotation=is_rotation)
        assert _describe(actual) == _describe(expected), (values, epsilon, is_rotation)


# ---------------------------------------------------------------------------
# Column families
# ---------------------------------------------------------------------------

_constants = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 90.0, 360.0, 0.1, 1 / 3, 2.0000001]),
    st.integers(-1000, 1000).map(float),
    st.floats(-1000, 1000, allow_nan=False),
    st.floats(1e6, 1e15).flatmap(lambda v: st.sampled_from([v, -v])),
)
_coefficients = st.one_of(
    st.integers(-50, 50).map(float),
    st.integers(-720, 720).map(lambda n: n / 8),
    st.floats(-100, 100, allow_nan=False),
)
_noise = st.floats(-4e-4, 4e-4, allow_nan=False)


@st.composite
def all_equal(draw):
    return [draw(_constants)] * draw(_lengths)


@st.composite
def near_constant(draw):
    value = draw(_constants.filter(lambda v: abs(v) < 1e6))
    count = draw(_lengths)
    return [value + draw(_noise) for _ in range(count)]


@st.composite
def arithmetic(draw):
    a, b = draw(_coefficients), draw(_coefficients)
    return [a * i + b for i in range(draw(_lengths))]


@st.composite
def rotation(draw):
    count = draw(st.sampled_from([n for n in range(2, 361) if 360 % n == 0]))
    shift = draw(st.sampled_from([0, 1]))
    offset = draw(st.sampled_from([0.0, 0.0, 45.0, -30.0, 7.5]))
    sign = draw(st.sampled_from([1, 1, -1]))
    return [sign * 360.0 * (i + shift) / count + offset for i in range(draw(_lengths))]


@st.composite
def quadratic(draw):
    a, b, c = draw(_coefficients), draw(_coefficients), draw(_coefficients)
    return [a * i * i + b * i + c for i in range(draw(_lengths))]


@st.composite
def exact_sinusoid(draw):
    count = draw(st.integers(4, 60))
    frequency = draw(
        st.one_of(
            st.builds(lambda d, h: 360.0 * h / d, st.integers(1, 121), st.integers(1, 4)),
            st.sampled_from([30.0, 45.0, 60.0, 72.0, 90.0, 120.0, 180.0]),
            st.floats(1.0, 359.0),
        )
    )
    amplitude = draw(st.sampled_from([1.0, 2.0, 5.0, 12.5, 0.75]))
    phase = draw(st.sampled_from([0.0, 90.0, 315.0, 17.0]))
    offset = draw(st.sampled_from([0.0, 10.0, -3.5]))
    return [
        offset + amplitude * math.sin(math.radians(frequency * i + phase))
        for i in range(count)
    ]


@st.composite
def noisy_sinusoid(draw):
    values = draw(exact_sinusoid())
    return [value + draw(_noise) for value in values]


@st.composite
def random_data(draw):
    return draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=60))


_columns = st.one_of(
    all_equal(), near_constant(), arithmetic(), rotation(), quadratic(),
    exact_sinusoid(), noisy_sinusoid(), random_data(),
)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(all_equal(), _epsilons)
@example([-0.0] * 3, 1e-3)
@example([0.1] * 3, 1e-3)
@example([1e15] * 60, 1e-3)
def test_all_equal_columns(values, epsilon):
    _same_solution(values, epsilon)


@settings(max_examples=150, deadline=None)
@given(near_constant(), _epsilons)
@example([1.0, 1.0004], 1e-3)
def test_near_constant_columns(values, epsilon):
    _same_solution(values, epsilon)


@settings(max_examples=150, deadline=None)
@given(st.one_of(arithmetic(), rotation()), _epsilons)
@example([0.0, 6.0, 12.0, 18.0], 1e-3)
@example([6.0, 12.0, 18.0, 24.0], 1e-3)
def test_progressions(values, epsilon):
    _same_solution(values, epsilon)


@settings(max_examples=100, deadline=None)
@given(quadratic(), _epsilons)
def test_quadratics(values, epsilon):
    _same_solution(values, epsilon)


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_sinusoid(), noisy_sinusoid()), _epsilons)
@example([0.0, 1.0, 0.0, -1.0] * 3, 1e-3)
def test_sinusoids(values, epsilon):
    _same_solution(values, epsilon)
    # The fit itself, on the columns the polynomial families leave to it.
    assert _describe(fit_sinusoid(values, epsilon)) == _describe(
        oracle.fit_sinusoid(values, epsilon)
    )


@settings(max_examples=100, deadline=None)
@given(random_data(), _epsilons)
def test_random_columns(values, epsilon):
    _same_solution(values, epsilon)


@settings(max_examples=60, deadline=None)
@given(_columns, st.lists(st.floats(1.0, 400.0), max_size=3))
def test_sinusoid_scan_with_extra_frequencies(values, extra):
    # Extra frequencies are scanned before the cached candidates.
    assert _describe(fit_sinusoid(values, 1e-3, extra_frequencies=extra)) == _describe(
        oracle.fit_sinusoid(values, 1e-3, extra_frequencies=extra)
    )


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1000, 1000, allow_nan=False),
    st.builds(
        lambda p, q, noise: p / q + noise,
        st.integers(-5000, 5000),
        st.integers(1, 2000),
        st.sampled_from([0.0, 1e-9, -1e-7, 3e-4, -2e-3]),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_floats, st.sampled_from([1e-6, 5e-3, 1e-3, 0.0, 0.5]), st.sampled_from([720, 1, 7, 1000]))
@example(0.3333335, 1e-3, 720)
@example(-0.0, 1e-6, 720)
@example(2.5, 0.0, 1)
def test_nice_round_matches_limit_denominator(value, tolerance, max_denominator):
    if value % 1 == 0:
        expected = float(value) + 0.0
    else:
        snapped = float(Fraction(value).limit_denominator(max_denominator))
        expected = snapped if abs(snapped - value) <= tolerance else value
    actual = nice_round(value, tolerance, max_denominator)
    assert repr(actual) == repr(expected)
    assert repr(actual) == repr(oracle.nice_round(value, tolerance, max_denominator))
