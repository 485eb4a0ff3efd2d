"""Parsing CSG (and LambdaCAD) programs from s-expression text.

The concrete syntax is shared with LambdaCAD: the parser builds plain
:class:`~repro.lang.term.Term` values and, when asked to parse specifically a
*flat CSG*, checks the result against the CSG grammar of paper Fig. 6.
"""

from __future__ import annotations

from repro.csg.validate import CsgValidationError, validate_flat_csg
from repro.lang.sexp import SexpError
from repro.lang.term import Term, TermError


class CsgSyntaxError(ValueError):
    """Raised when CSG text cannot be parsed or does not fit the grammar."""


def parse_term(text: str) -> Term:
    """Parse any term (CSG or LambdaCAD) from s-expression text."""
    try:
        return Term.parse(text)
    except (SexpError, TermError) as exc:
        raise CsgSyntaxError(str(exc)) from exc


def parse_csg(text: str, *, strict: bool = True) -> Term:
    """Parse a flat CSG program.

    With ``strict=True`` (the default), the parsed term must conform to the
    flat CSG grammar — primitives, affine transformations with numeric
    vectors, and binary booleans only.  ``strict=False`` skips the check,
    which is convenient for inputs containing ``External`` placeholders or
    already partially-structured programs.
    """
    term = parse_term(text)
    if strict:
        try:
            validate_flat_csg(term)
        except CsgValidationError as exc:
            raise CsgSyntaxError(str(exc)) from exc
    return term
