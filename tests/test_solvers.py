"""Unit tests for the closed-form solvers (the arithmetic component)."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import solver_oracle as oracle
from repro.lang.term import Term
from repro.cad.evaluator import evaluate
from repro.solvers.closed_form import FunctionSolver, solve_component
from repro.solvers.forms import ConstantForm, LinearForm, QuadraticForm, RotationForm, SinusoidForm
from repro.solvers.multilinear import MultilinearForm, fit_multilinear
from repro.solvers.polynomial import fit_constant, fit_linear, fit_quadratic
from repro.solvers.rational import as_int_if_close, nice_round
from repro.solvers.trig import fit_sinusoid

EPSILON = 1e-3


def _evaluate_form_term(form, index: int) -> float:
    """Evaluate the rendered LambdaCAD term of a form at a concrete index."""
    term = form.to_term(Term("i"))
    return float(evaluate(term, {"i": index}))


class TestRational:
    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 3.0, -7.0, 2.0**53, 1e300, 2.5, 1.9999998, 0.3333335]
    )
    @pytest.mark.parametrize("tolerance", [1e-6, 1e-3])
    def test_nice_round_matches_limit_denominator(self, value, tolerance):
        snapped = float(Fraction(value).limit_denominator(720))
        expected = snapped if abs(snapped - value) <= tolerance else value
        # repr tells 0.0 from -0.0: the match must be bit for bit.
        assert repr(nice_round(value, tolerance=tolerance)) == repr(expected)

    def test_nice_round_rejects_non_finite(self):
        with pytest.raises(OverflowError):
            nice_round(math.inf)
        with pytest.raises(ValueError):
            nice_round(math.nan)

    def test_nice_round_snaps_small_noise(self):
        assert nice_round(1.9999998, tolerance=1e-3) == 2.0
        assert nice_round(0.3333335, tolerance=1e-3) == pytest.approx(1.0 / 3.0)

    def test_nice_round_keeps_far_values(self):
        assert nice_round(2.345678, tolerance=1e-6) == 2.345678

    def test_rationalize_bounds_denominator(self):
        assert oracle.rationalize(0.5).denominator == 2
        assert oracle.rationalize(1.0 / 60.0).denominator == 60

    def test_as_int_if_close(self):
        assert as_int_if_close(5.0000000001) == 5
        assert as_int_if_close(5.01) is None


class TestPolynomialFits:
    def test_constant(self):
        form = fit_constant([125.0, 125.0001, 124.9999], EPSILON)
        assert isinstance(form, ConstantForm)
        assert form.value == pytest.approx(125.0, abs=1e-3)

    def test_constant_infeasible(self):
        assert fit_constant([1.0, 2.0], EPSILON) is None

    def test_linear_clean(self):
        form = fit_linear([2.0, 4.0, 6.0, 8.0, 10.0], EPSILON)
        assert isinstance(form, LinearForm)
        assert form.a == pytest.approx(2.0)
        assert form.b == pytest.approx(2.0)

    def test_linear_noisy_paper_example(self):
        # The paper's example: [5.001, 10.00001, 14.9998, 20.0] -> 5 * (i + 1).
        form = fit_linear([5.001, 10.00001, 14.9998, 20.0], EPSILON)
        assert form is not None
        assert form.a == pytest.approx(5.0, abs=2e-3)
        assert form.b == pytest.approx(5.0, abs=5e-3)

    def test_linear_infeasible(self):
        assert fit_linear([0.0, 1.0, 0.0, 1.0], EPSILON) is None

    def test_quadratic_exact(self):
        values = [3.0 * i * i + 2.0 * i + 1.0 for i in range(5)]
        form = fit_quadratic(values, EPSILON)
        assert isinstance(form, QuadraticForm)
        assert (form.a, form.b, form.c) == pytest.approx((3.0, 2.0, 1.0))

    def test_quadratic_requires_three_points(self):
        assert fit_quadratic([1.0, 2.0], EPSILON) is None

    def test_forms_render_to_evaluable_terms(self):
        form = fit_linear([2.0, 4.0, 6.0], EPSILON)
        for i in range(3):
            assert _evaluate_form_term(form, i) == pytest.approx(form.predict(i))


class TestTrigFits:
    def test_square_wave_like_paper_example(self):
        # x components of the paper's example: [-1, -1, 1, 1] = sin(180 i + 270).
        form = fit_sinusoid([-1.0, -1.0, 1.0, 1.0], EPSILON)
        assert isinstance(form, SinusoidForm)
        for i, expected in enumerate([-1.0, -1.0, 1.0, 1.0]):
            assert form.predict(i) == pytest.approx(expected, abs=1e-3)

    def test_circular_pattern(self):
        values = [10.0 + 7.07 * math.sin(math.radians(90.0 * i + 315.0)) for i in range(4)]
        form = fit_sinusoid(values, EPSILON)
        assert form is not None
        assert form.max_residual(values) <= EPSILON

    def test_too_few_points(self):
        assert fit_sinusoid([1.0, 2.0, 3.0], EPSILON) is None

    def test_non_periodic_rejected(self):
        # Random-looking data without a sinusoidal structure at tolerance 1e-3.
        values = [0.0, 5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        form = fit_sinusoid(values, EPSILON)
        if form is not None:
            assert form.max_residual(values) <= EPSILON

    def test_recurrence_rejects_before_the_scan(self):
        # No sinusoid is within 1e-3 of these values: the least-squares
        # residual of y[i+1] + y[i-1] = alpha*y[i] + beta exceeds
        # 4e-3*sqrt(5), so the fit ends after that one solve.
        work = Counter()
        assert fit_sinusoid([0.0, 5.0, 1.0, 9.0, 2.0, 7.0, 3.0], EPSILON, work=work) is None
        assert work == Counter(sinusoid_fits=1, sinusoid_rejections=1, lstsq_solves=1)

    def test_recurrence_rejects_four_values(self):
        # With y[1] == y[2] the recurrence's two equations share one design
        # row, and its residual |y[0] - y[3]| / sqrt(2) exceeds 4e-3*sqrt(2).
        work = Counter()
        assert fit_sinusoid([0.0, 1.0, 1.0, 0.05], EPSILON, work=work) is None
        assert work == Counter(sinusoid_fits=1, sinusoid_rejections=1, lstsq_solves=1)

    def test_renders_sin_term(self):
        form = fit_sinusoid([-1.0, -1.0, 1.0, 1.0], EPSILON)
        rendered = form.to_term(Term("i"))
        assert "Sin" in {t.op for t in rendered.subterms()}


class TestModelSelection:
    def test_prefers_simpler_feasible_form(self):
        solution = solve_component([5.0, 5.0, 5.0, 5.0])
        assert isinstance(solution, ConstantForm)

    def test_linear_beats_quadratic_when_exact(self):
        solution = solve_component([1.0, 3.0, 5.0, 7.0])
        assert solution.kind == "d1"

    def test_quadratic_when_needed(self):
        values = [float(i * i) for i in range(5)]
        solution = solve_component(values)
        assert solution.kind == "d2"

    def test_rotation_heuristic(self):
        values = [6.0 * (i + 1) for i in range(10)]
        solution = solve_component(values, is_rotation=True)
        assert isinstance(solution, RotationForm)
        assert solution.count == 60
        rendered = str(solution.to_term(Term("i")))
        assert "360" in rendered and "60" in rendered

    def test_rotation_heuristic_disabled_for_non_rotation(self):
        values = [6.0 * (i + 1) for i in range(10)]
        solution = solve_component(values, is_rotation=False)
        assert not isinstance(solution, RotationForm)

    def test_infeasible_returns_none(self):
        assert solve_component([1.0, 17.0, 2.0, 23.0, 3.0, 31.0, 4.0]) is None

    def test_solve_vectors_componentwise(self):
        vectors = [(2.0 * (i + 1), 0.0, 5.0) for i in range(5)]
        function = FunctionSolver().solve(vectors)
        assert function is not None
        assert oracle.predict_vector(function, 2) == pytest.approx((6.0, 0.0, 5.0))
        assert oracle.is_constant_vector(function) is False

    def test_solver_memo_returns_equal_forms(self):
        solver = FunctionSolver()
        vectors = [(2.0 * (i + 1), 0.0, 5.0) for i in range(5)]
        first = solver.solve(vectors)
        second = solver.solve(list(vectors))
        assert second.kinds() == first.kinds()
        assert second.to_terms(Term("i")) == first.to_terms(Term("i"))
        assert (solver.calls, solver.memo_hits) == (2, 1)

    @pytest.mark.parametrize("rotation_first", [True, False])
    def test_solver_memo_keys_on_is_rotation(self, rotation_first):
        solver = FunctionSolver()
        vectors = [(0.0, 0.0, z) for z in (0.0, 60.0, 120.0)]
        order = [True, False] if rotation_first else [False, True]
        z_forms = {flag: solver.solve(vectors, is_rotation=flag).z for flag in order}
        assert isinstance(z_forms[True], RotationForm)
        assert str(z_forms[True].to_term(Term("i"))) == "(Div (Mul 360 i) 6)"
        assert isinstance(z_forms[False], LinearForm)
        assert str(z_forms[False].to_term(Term("i"))) == "(Mul 60 i)"

    def test_column_shared_by_two_lists_is_solved_once(self):
        solver = FunctionSolver()
        first = solver.solve([(2.0 * i, 0.0, 5.0) for i in range(4)])
        second = solver.solve([(2.0 * i, 3.0 * i, 5.0) for i in range(4)])
        # Two lists, six columns: the x and z columns are the same in both.
        assert (solver.calls, solver.memo_hits) == (2, 0)
        assert (solver.column_calls, solver.column_memo_hits) == (6, 2)
        assert (second.x, second.z) == (first.x, first.z)
        index = Term("i")
        assert second.to_terms(index)[0::2] == first.to_terms(index)[0::2]
        assert second.y != first.y

    @pytest.mark.parametrize("rotation_first", [True, False])
    def test_column_memo_keys_on_is_rotation(self, rotation_first):
        solver = FunctionSolver()
        angles = (0.0, 60.0, 120.0)
        # Different x columns, so the vector memo cannot answer the second
        # list; its z column is the first list's, under the other flag.
        lists = {True: [(2.0, 0.0, z) for z in angles], False: [(1.0, 0.0, z) for z in angles]}
        order = [True, False] if rotation_first else [False, True]
        z_forms = {flag: solver.solve(lists[flag], is_rotation=flag).z for flag in order}
        assert isinstance(z_forms[True], RotationForm)
        assert isinstance(z_forms[False], LinearForm)
        assert (solver.column_calls, solver.column_memo_hits) == (6, 0)

    def test_solve_vectors_rejects_partial(self):
        vectors = [(float(i), 0.0, [1.0, 17.0, 2.0, 23.0, 3.0][i]) for i in range(5)]
        assert FunctionSolver().solve(vectors) is None

    def test_epsilon_controls_acceptance(self):
        # Noise of ~0.02 on a line: rejected at the paper's epsilon (1e-3),
        # accepted when the tolerance is loosened past the noise level.
        noisy = [2.0, 4.01, 6.0, 8.02, 10.0, 11.98]
        assert solve_component(noisy, epsilon=1e-3) is None
        loose = solve_component(noisy, epsilon=0.05)
        assert loose is not None
        assert loose.max_residual(noisy) <= 0.05


class TestMultilinear:
    def test_exact_grid(self):
        tuples = [(i, j) for i in range(2) for j in range(3)]
        values = [24.0 * i - 12.0 + 0.0 * j for i, j in tuples]
        form = fit_multilinear(tuples, values, EPSILON)
        assert isinstance(form, MultilinearForm)
        assert form.coefficients[0] == pytest.approx(24.0)
        assert form.intercept == pytest.approx(-12.0)

    def test_mixed_dependence(self):
        tuples = [(i, j) for i in range(3) for j in range(4)]
        values = [5.0 * i - 2.0 * j + 7.0 for i, j in tuples]
        form = fit_multilinear(tuples, values, EPSILON)
        assert form.max_residual(tuples, values) <= EPSILON

    def test_infeasible(self):
        tuples = [(i, j) for i in range(2) for j in range(2)]
        values = [0.0, 1.0, 1.0, 5.0]
        assert fit_multilinear(tuples, values, EPSILON) is None

    def test_renders_term_over_two_indices(self):
        tuples = [(i, j) for i in range(2) for j in range(2)]
        values = [10.0 * i + 3.0 * j + 1.0 for i, j in tuples]
        form = fit_multilinear(tuples, values, EPSILON)
        term = form.to_term([Term("i"), Term("j")])
        for (i, j), expected in zip(tuples, values):
            assert float(evaluate(term, {"i": i, "j": j})) == pytest.approx(expected)

    def test_constant_form(self):
        tuples = [(i,) for i in range(4)]
        form = fit_multilinear(tuples, [3.0, 3.0, 3.0, 3.0], EPSILON)
        assert oracle.is_constant_multilinear(form)


@settings(max_examples=40)
@given(
    a=st.floats(min_value=-20, max_value=20, allow_nan=False),
    b=st.floats(min_value=-50, max_value=50, allow_nan=False),
    count=st.integers(min_value=2, max_value=12),
)
def test_linear_fit_recovers_exact_lines(a, b, count):
    """Any exact line is recovered within epsilon (property)."""
    values = [a * i + b for i in range(count)]
    form = fit_linear(values, EPSILON)
    assert form is not None
    assert form.max_residual(values) <= EPSILON


@settings(max_examples=40)
@given(
    a=st.integers(min_value=-10, max_value=10),
    b=st.integers(min_value=-10, max_value=10),
    c=st.integers(min_value=-20, max_value=20),
    count=st.integers(min_value=3, max_value=10),
)
def test_quadratic_fit_recovers_exact_polynomials(a, b, c, count):
    """Any exact quadratic is recovered within epsilon (property)."""
    values = [float(a * i * i + b * i + c) for i in range(count)]
    form = fit_quadratic(values, EPSILON)
    assert form is not None
    assert form.max_residual(values) <= EPSILON
