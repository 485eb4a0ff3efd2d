"""The closed-form solvers against the designs they replaced.

``tests/solver_oracle.py`` keeps ``solve_component``, the polynomial and
trigonometric fits and ``nice_round`` as they were before the solvers
skipped work their answer does not need: the constant shortcut, the
feasibility re-check, ranking a lone form, the ``Fraction`` route of
``nice_round``, the refinement of an exact sinusoid scan, the per-fit
scan design matrices, and the frequency scan of a column whose linear
recurrence already rules out every sinusoid.  It also keeps
``fit_multilinear`` as it was before every least-squares family shared
one snap-and-check path.  Both designs
run on generated columns (and, for ``fit_multilinear``, on the nested-loop
index grids) and must agree on the form type, the ``repr`` of every
coefficient and the rendered term.  R² is not part of the answer: it only
ranks two or more feasible forms.

Each shortcut has a family here that tells its mutant apart from the
oracle (checked on scratch copies of the solvers):

* constant shortcut taken when the values agree within epsilon instead of
  exactly — killed by ``near_constant`` columns (noise below epsilon),
  where a line fits better than the constant;
* a fit returning its raw form unchecked (which the dropped re-check used
  to catch) — killed by ``random`` columns;
* ``nice_round`` walking one convergent too few (``>=`` for ``>``) or
  never taking the semiconvergent — killed by
  ``test_nice_round_matches_limit_denominator``;
* refinement skipped below 1e-3 instead of the 1e-12 margin — killed by
  ``noisy_sinusoid`` columns;
* scan designs built for another length's frequencies — killed by
  ``exact_sinusoid`` columns;
* the shared ``fit_design`` returning its raw form unchecked, or trying it
  before the snapped one — killed by ``test_multilinear_fits`` alone too;
* a snap tolerance below 1/1440 (5e-4) — killed by
  ``test_every_finite_value_snaps_at_the_snap_tolerance``; any tolerance
  from 1/1440 up snaps every value alike, so no test can tell those apart;
* the sinusoid recurrence filter solved on the raw values instead of the
  centered, scaled ones, or bounded by ``4*epsilon`` without the
  ``sqrt(n - 2)`` — killed by
  ``test_the_recurrence_rejects_no_sinusoid_the_oracle_finds``; scaling
  without centering survives, and no column can kill it: its design
  drops the constant column only when the amplitude is below about
  ``1e-14 * n`` of the offset, and then the float slack exceeds any
  residual the column can leave.

The shortcut stays off rotation columns, where a ``RotationForm`` would
outrank an equally good constant.  Taking it there too survives every
family here (no all-equal column made a ``RotationForm`` arise), which is
not a proof that none can, so the full path keeps them.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import solver_oracle as oracle
from repro.core.loop_inference import m_factorizations, m_index_set
from repro.lang.term import Term
from repro.solvers import closed_form
from repro.solvers.multilinear import fit_multilinear
from repro.solvers.polynomial import SNAP_TOLERANCE
from repro.solvers.rational import nice_round
from repro.solvers.trig import fit_sinusoid

_INDEX = Term("i")
_INDEX_VARS = (Term("i"), Term("j"), Term("k"))

_lengths = st.integers(1, 60)
_epsilons = st.sampled_from([1e-3, 1e-3, 1e-2, 0.0])


def _describe(solution, index=_INDEX):
    """Everything a solution exposes: type, coefficients, rendered term."""
    if solution is None:
        return None
    form = getattr(solution, "form", solution)
    coefficients = tuple(
        (name, repr(value)) for name, value in vars(form).items() if name != "kind"
    )
    return type(form).__name__, coefficients, str(form.to_term(index))


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


# ---------------------------------------------------------------------------
# The recurrence filter: sinusoids within epsilon, up to 1e15
# ---------------------------------------------------------------------------


def _sampled_sinusoid(count, frequency, amplitude, phase, offset, noise=None):
    """``offset + amplitude*sin(frequency*i + phase)`` (degrees) plus noise."""
    noise = [0.0] * count if noise is None else noise
    return [
        offset + amplitude * math.sin(math.radians(frequency * i + phase)) + noise[i]
        for i in range(count)
    ]


_magnitudes = st.one_of(
    st.floats(-3.0, 15.0).map(lambda exponent: 10.0**exponent),
    st.integers(-3, 15).map(lambda exponent: 10.0**exponent),
    st.builds(lambda m, exponent: m * 10.0**exponent, st.integers(1, 99), st.integers(-3, 13)),
)


@st.composite
def sinusoids_within_epsilon(draw):
    """A column within epsilon of a sinusoid, and that epsilon."""
    count = draw(st.integers(4, 60))
    frequency = draw(
        st.one_of(
            st.floats(0.0, 360.0, exclude_min=True, exclude_max=True),
            st.builds(lambda d, h: 360.0 * h / d, st.integers(1, 121), st.integers(1, 4)),
            st.sampled_from([90.0, 60.0]),
        )
    )
    amplitude = draw(_magnitudes)
    offset = draw(_magnitudes) * draw(st.sampled_from([1.0, -1.0]))
    phase = draw(st.one_of(st.sampled_from([0.0, 90.0, 315.0, 17.0]), st.floats(0.0, 360.0)))
    epsilon = draw(st.sampled_from([0.0, 1e-3, 1e-2]))
    noise = draw(
        st.one_of(
            st.lists(st.floats(-epsilon, epsilon), min_size=count, max_size=count),
            st.lists(st.sampled_from([-epsilon, epsilon]), min_size=count, max_size=count),
        )
    )
    return _sampled_sinusoid(count, frequency, amplitude, phase, offset, noise), epsilon


def _alternating(count, epsilon, run=1):
    """Noise of exactly +-epsilon, changing sign every ``run`` values."""
    return [epsilon if (i // run) % 2 == 0 else -epsilon for i in range(count)]


@settings(max_examples=200, deadline=None)
@given(sinusoids_within_epsilon())
# Offsets of 1e14 to 1e15 under amplitudes of 1e6 to 1e7: on the raw
# [y[i], 1] design, lstsq drops the constant column as rank-deficient.
@example((_sampled_sinusoid(5, 90.0, 1e7, 0.0, 1e15), 1e-3))
@example((_sampled_sinusoid(8, 90.0, 2.5e6, 0.0, -1e15), 1e-3))
@example((_sampled_sinusoid(12, 90.0, 1e6, 0.0, 3e14), 0.0))
@example((_sampled_sinusoid(12, 45.0, 1e6, 0.0, 1e14), 1e-3))
# Noise of exactly +-epsilon over 10 to 60 values: the residual is above
# 4*epsilon, and within 4*epsilon*sqrt(n - 2).
@example((_sampled_sinusoid(12, 60.0, 2.5, 17.0, 10.0, _alternating(12, 1e-2)), 1e-2))
@example((_sampled_sinusoid(60, 90.0, 5.0, 0.0, 10.0, _alternating(60, 1e-2)), 1e-2))
@example((_sampled_sinusoid(10, 30.0, 12.5, 315.0, -3.5, _alternating(10, 1e-3, 2)), 1e-3))
@example((_sampled_sinusoid(40, 60.0, 2.5, 17.0, 10.0, _alternating(40, 1e-3, 3)), 1e-3))
# 4 values whose middle two are equal: the recurrence's 2 equations share
# one design row, and the residual is |y[0] - y[3]| / sqrt(2).
@example(([0.0, 1.0, 1.0, 0.0], 1e-3))
@example(([0.0, 1.0, 1.0, 0.002], 1e-3))
@example((_sampled_sinusoid(4, 90.0, 1e6, 315.0, 1e14), 1e-3))
def test_the_recurrence_rejects_no_sinusoid_the_oracle_finds(column):
    # A rejection returns None, so the answers differ whenever the filter
    # rejects a column on which the oracle's unfiltered search succeeds.
    values, epsilon = column
    expected = oracle.fit_sinusoid(values, epsilon)
    assert _describe(fit_sinusoid(values, epsilon)) == _describe(expected), (values, epsilon)


# ---------------------------------------------------------------------------
# Nested-loop fits: affine values over the loop inference's index grids
# ---------------------------------------------------------------------------

#: Every grid loop inference fits for a list of 4 to 60 elements, nested 2
#: or 3 deep.
_GRIDS = [
    m_index_set(dimensions)
    for nesting in (2, 3)
    for count in range(4, 61)
    for dimensions in m_factorizations(count, nesting)
]
_affine_coefficients = st.one_of(
    st.integers(-50, 50).map(float),
    st.integers(-720, 720).map(lambda n: n / 8),
    st.integers(-10**6, 10**6).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def grid_columns(draw):
    grid = draw(st.sampled_from(_GRIDS))
    family = draw(st.sampled_from(["exact", "noisy", "random"]))
    if family == "random":
        values = st.floats(-1e6, 1e6, allow_nan=False)
        return grid, draw(st.lists(values, min_size=len(grid), max_size=len(grid)))
    coefficients = [draw(_affine_coefficients) for _ in grid[0]]
    intercept = draw(_affine_coefficients)
    values = [sum(a * i for a, i in zip(coefficients, t)) + intercept for t in grid]
    if family == "noisy":
        values = [value + draw(_noise) for value in values]
    return grid, values


@settings(max_examples=300, deadline=None)
@given(grid_columns(), _epsilons)
@example((m_index_set((2, 3)), [24.0 * i - 12.0 for i, _ in m_index_set((2, 3))]), 1e-3)
@example((m_index_set((3, 4)), [5.0 * i - 2.0 * j + 7.0004 for i, j in m_index_set((3, 4))]), 0.0)
def test_multilinear_fits(column, epsilon):
    grid, values = column
    index_vars = _INDEX_VARS[: len(grid[0])]
    expected_work, actual_work = Counter(), Counter()
    expected = oracle.fit_multilinear(grid, values, epsilon, expected_work)
    actual = fit_multilinear(grid, values, epsilon, actual_work)
    assert _describe(actual, index_vars) == _describe(expected, index_vars), (grid, values, epsilon)
    assert actual_work == expected_work


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


@settings(max_examples=500, deadline=None)
@given(_floats)
@example(1 / 1440)
@example(1e6 - 1 / 1440)
def test_every_finite_value_snaps_at_the_snap_tolerance(value):
    # Fractions with denominator at most 720 lie at most 1/720 apart, so
    # every finite value is within 1/1440 of one (the examples are that far),
    # and SNAP_TOLERANCE exceeds 1/1440.  So the new fits snap at
    # SNAP_TOLERANCE alone, as the oracle's max(5e-3, epsilon) did at any
    # epsilon: the tolerance never decides, the residual check does.
    assert repr(nice_round(value, SNAP_TOLERANCE)) == repr(nice_round(value, math.inf))
