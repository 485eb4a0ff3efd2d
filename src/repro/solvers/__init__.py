"""Closed-form function inference ("the arithmetic component").

Given the sequence of values a vector component takes across the elements of
a determinized list, these solvers search for a closed form of the index
(paper Section 4.1):

1. a first-degree polynomial ``a*i + b``,
2. a second-degree polynomial ``a*i^2 + b*i + c``,
3. a trigonometric form ``a*sin(b*i + c)`` (angles in degrees).

All fits must hold within an explicit tolerance ``epsilon`` (default 0.001),
because real inputs carry floating-point noise from mesh decompilation.  The
paper asks Z3 for a model of each polynomial form's epsilon-bounded linear
system.  This reproduction runs without Z3 and answers the same feasibility
question on one path (:func:`repro.solvers.polynomial.fit_design`): a
least-squares solve, coefficients snapped to nice rationals (Z3's models are
exact rationals), and an explicit check of every residual.  The nested-loop
forms of :mod:`repro.solvers.multilinear` take the same path.  The
trigonometric solver follows the paper: least squares at a scanned and
refined frequency, held to the same epsilon; a column of 5 or more values
that no sinusoid fits within epsilon is rejected first, by the residual of
a linear recurrence every sinusoid obeys.  R² only ranks two or more
feasible forms of one component.
"""

from repro.solvers.forms import (
    ClosedForm,
    LinearForm,
    QuadraticForm,
    SinusoidForm,
    ConstantForm,
)
from repro.solvers.polynomial import fit_constant, fit_linear, fit_quadratic
from repro.solvers.trig import fit_sinusoid
from repro.solvers.rational import nice_round
from repro.solvers.closed_form import (
    FunctionSolver,
    solve_component,
    VectorFunction,
)

__all__ = [
    "ClosedForm",
    "ConstantForm",
    "LinearForm",
    "QuadraticForm",
    "SinusoidForm",
    "fit_constant",
    "fit_linear",
    "fit_quadratic",
    "fit_sinusoid",
    "nice_round",
    "FunctionSolver",
    "solve_component",
    "VectorFunction",
]
