"""Model selection across the closed-form solvers.

``solve_component`` tries, in order, the constant, degree-1, degree-2, and
trigonometric families, keeps every feasible fit (max residual within
epsilon), and returns the one with the best coefficient of determination —
ties broken by the *simplest* rendered expression, so a constant beats an
equivalent degree-2 fit.  :class:`FunctionSolver` solves the three
components of a list of 3-vectors independently, which is exactly how the
paper's function inference decomposes the problem (Section 4.1).

It does only the arithmetic its answer needs.  A column whose every value
equals the fitted constant is answered by the constant alone (R² 1.0 and a
one-node term: nothing ranks above it), except on rotation columns, where
a :class:`~repro.solvers.forms.RotationForm` would.  Each fit checks its
own residuals, so nothing re-checks them; a lone feasible form is returned
without ranking, and ranking computes each form's R² and node count once.
The answers are bit for bit those of the full search
(``tests/test_solver_oracle.py`` diffs them against ``tests/solver_oracle.py``).

The rotation heuristic from the paper is applied here: when the solved
component feeds a ``Rotate``, a feasible linear fit ``a*i + b`` whose step
divides 360 is re-expressed as ``360 * (i [+1]) / n`` (a
:class:`~repro.solvers.forms.RotationForm`), which surfaces the loop bound
(e.g. the gear's 60 teeth) directly in the program text.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.term import Term
from repro.solvers.forms import (
    ClosedForm,
    ConstantForm,
    LinearForm,
    RotationForm,
    SinusoidForm,
)
from repro.solvers.polynomial import fit_constant, fit_linear, fit_quadratic
from repro.solvers.rational import as_int_if_close
from repro.solvers.trig import fit_sinusoid


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
    work: Optional[Counter] = None,
) -> Optional[ComponentSolution]:
    """Find the best closed form for one vector component.

    Every fit must hold within ``epsilon`` on every value (the paper's
    tolerance, 0.001 by default).  ``work``, when given, counts the solver's
    arithmetic: ``constant_shortcuts`` (columns the constant alone
    answered), ``sinusoid_fits`` and ``lstsq_solves``.
    """
    values = [float(v) for v in values]
    if not values:
        return None
    work = Counter() if work is None else work

    constant = fit_constant(values, epsilon)
    if constant is not None and not is_rotation and all(v == constant.value for v in values):
        # The constant predicts every value exactly, so its R^2 is 1.0, which
        # no form exceeds, and its term is one node, which no form undercuts;
        # it comes first, so it wins every tie.  (On a rotation column an
        # equally good RotationForm would rank above it, so those take the
        # full path.)
        work["constant_shortcuts"] += 1
        return ComponentSolution(form=constant, r_squared=1.0)

    # The paper tries the polynomial families first and only falls back to
    # the trigonometric solver when no polynomial fits (Section 4.1).  This
    # ordering also keeps noisy-but-constant data from being "explained" by a
    # sinusoid that interpolates the noise.  Each fit returns only a form
    # that holds within epsilon on every value, so every candidate is
    # feasible.
    feasible: List[ClosedForm] = [] if constant is None else [constant]

    linear = fit_linear(values, epsilon, work)
    if linear is not None:
        if is_rotation:
            rotation = _rotation_normalize(linear, values, epsilon)
            if rotation is not None:
                feasible.append(rotation)
        feasible.append(linear)

    quadratic = fit_quadratic(values, epsilon, work)
    if quadratic is not None:
        feasible.append(quadratic)

    if not feasible and len(set(values)) >= 2:
        sinusoid = fit_sinusoid(values, epsilon, work=work)
        if sinusoid is not None:
            feasible = [sinusoid]

    if not feasible:
        return None
    if len(feasible) == 1:
        (best,) = feasible
        return ComponentSolution(form=best, r_squared=best.r_squared(values))

    r_squared = [form.r_squared(values) for form in feasible]

    def rank(index: int) -> Tuple[float, int, int]:
        # Maximize R^2 (so sort on its negation), then — for rotation
        # components — prefer the periodic 360/n shape (the paper's rotation
        # heuristic), then prefer simpler terms.
        form = feasible[index]
        rotation_preference = 0 if (is_rotation and isinstance(form, RotationForm)) else 1
        return (-round(r_squared[index], 9), rotation_preference, form.complexity())

    best = min(range(len(feasible)), key=rank)
    return ComponentSolution(form=feasible[best], r_squared=r_squared[best])


@dataclass
class VectorFunction:
    """Closed forms for the x, y, z components of an affine-vector list."""

    x: ClosedForm
    y: ClosedForm
    z: ClosedForm
    r_squared: float = 1.0
    _rendered: Dict[Term, Tuple[Term, Term, Term]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def to_terms(self, index: Term) -> Tuple[Term, Term, Term]:
        """Render the three component expressions over the index variable.

        Rendered once per index: the forms never change, and the solver's
        memo hands the same function to every list it solves.
        """
        terms = self._rendered.get(index)
        if terms is None:
            terms = (self.x.to_term(index), self.y.to_term(index), self.z.to_term(index))
            self._rendered[index] = terms
        return terms

    def predict(self, index: int) -> Tuple[float, float, float]:
        return (self.x.predict(index), self.y.predict(index), self.z.predict(index))

    def kinds(self) -> Tuple[str, str, str]:
        return (self.x.kind, self.y.kind, self.z.kind)

    def dominant_kind(self) -> str:
        """The most "interesting" function class across components.

        Table 1's ``f`` column reports one label per loop; a trigonometric
        component outranks polynomials, and degree 2 outranks degree 1.
        """
        kinds = set(self.kinds())
        if "theta" in kinds:
            return "theta"
        if "d2" in kinds:
            return "d2"
        return "d1"

    def is_constant(self) -> bool:
        """True when all three components are constants."""
        return all(isinstance(f, ConstantForm) for f in (self.x, self.y, self.z))

    def describe(self) -> str:
        return f"({self.x.describe()}, {self.y.describe()}, {self.z.describe()})"


class FunctionSolver:
    """Facade over the component solvers, operating on lists of 3-vectors.

    :meth:`solve` is a pure function of its vectors, ``is_rotation`` and
    ``epsilon``, and so is :func:`solve_component` of one column, so each
    solver memoizes both, ``None`` included: a repeated list returns the
    same :class:`VectorFunction`, and a column two lists share (a constant
    ``0`` component, the same ``x`` progression under different ``y``) is
    solved once.  ``is_rotation`` is part of both keys, because it admits
    the :class:`~repro.solvers.forms.RotationForm`.  The keys are tuples of
    the input floats, which compare like the e-graph's operator interning
    does (``0.0 == -0.0``), so a memo never identifies two inputs the
    e-graph keeps apart.  A synthesis run creates one solver and drops it,
    memos and all, when the run ends.
    """

    def __init__(self, epsilon: float = 1e-3):
        self.epsilon = epsilon
        self._memo: Dict[Tuple[Tuple[Tuple[float, ...], ...], bool], Optional[VectorFunction]] = {}
        self._columns: Dict[Tuple[Tuple[float, ...], bool], Optional[ComponentSolution]] = {}
        #: Requests and memo hits, reported by the inference spans.
        self.calls = 0
        self.memo_hits = 0
        self.column_calls = 0
        self.column_memo_hits = 0
        #: The arithmetic behind them (see :func:`solve_component`), also
        #: reported by the inference spans; loop inference adds the
        #: least-squares solves of its multilinear fits.
        self.work: Counter = Counter()

    def solve(
        self, vectors: Sequence[Sequence[float]], *, is_rotation: bool = False
    ) -> Optional[VectorFunction]:
        """Find closed forms for every component of ``vectors`` or ``None``."""
        self.calls += 1
        key = (tuple(tuple(v) for v in vectors), is_rotation)
        if key in self._memo:
            self.memo_hits += 1
            return self._memo[key]
        function = self._solve(key[0], is_rotation)
        self._memo[key] = function
        return function

    def _solve(
        self, vectors: Tuple[Tuple[float, ...], ...], is_rotation: bool
    ) -> Optional[VectorFunction]:
        if not vectors:
            return None
        columns = list(zip(*vectors))
        if len(columns) != 3:
            raise ValueError("expected 3-component vectors")
        solutions = []
        for column in columns:
            solution = self._solve_column(column, is_rotation)
            if solution is None:
                return None
            solutions.append(solution)
        overall_r2 = min(s.r_squared for s in solutions)
        return VectorFunction(
            x=solutions[0].form,
            y=solutions[1].form,
            z=solutions[2].form,
            r_squared=overall_r2,
        )

    def _solve_column(
        self, column: Tuple[float, ...], is_rotation: bool
    ) -> Optional[ComponentSolution]:
        self.column_calls += 1
        key = (column, is_rotation)
        if key in self._columns:
            self.column_memo_hits += 1
            return self._columns[key]
        solution = solve_component(column, self.epsilon, is_rotation=is_rotation, work=self.work)
        self._columns[key] = solution
        return solution
