"""Reproduction of Szalinski (PLDI 2020).

Szalinski synthesizes structured, parameterized CAD programs (in a small
functional language, "LambdaCAD") from flat Constructive Solid Geometry
inputs by combining equality saturation over an e-graph with arithmetic
closed-form solvers ("inverse transformations").

The public API is intentionally small:

``synthesize(csg, config=None)``
    Run the full Szalinski pipeline on a flat CSG term and return the top-k
    parameterized LambdaCAD candidates (best first).

``parse_csg(text)`` / ``format_term(term)``
    Parse and pretty-print s-expression CSG / LambdaCAD terms.

``unroll(term)``
    Evaluate a LambdaCAD program back down to a flat CSG (the inverse
    transformation used for translation validation).

Subpackages provide the underlying substrates: :mod:`repro.egraph` (the
equality-saturation engine), :mod:`repro.csg` and :mod:`repro.cad` (the input
and output languages), :mod:`repro.solvers` (closed-form inference),
:mod:`repro.geometry` (affine matrices and the sampled occupancy-grid
diagnostic), :mod:`repro.scad` (the OpenSCAD frontend, and the emitter that
is the one path from a synthesized program to a printable model), and
:mod:`repro.benchsuite` (the paper's benchmark models and the Table 1
harness).
"""

from repro.lang.sexp import parse_sexp, format_sexp
from repro.lang.term import Term
from repro.csg.parser import parse_csg
from repro.csg.pretty import format_term
from repro.cad.evaluator import unroll
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize, SynthesisResult

__all__ = [
    "Term",
    "parse_sexp",
    "format_sexp",
    "parse_csg",
    "format_term",
    "unroll",
    "SynthesisConfig",
    "SynthesisResult",
    "synthesize",
]

__version__ = "1.0.0"
