"""Pretty-printing of CSG / LambdaCAD terms.

Two renderings are provided: the canonical s-expression form used everywhere
for round-tripping, and an OpenSCAD-like functional notation close to how the
paper typesets programs (``Translate (1, 2, 3, Cube)``), which reads better in
examples and docs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.lang.sexp import format_sexp
from repro.lang.term import Term


def format_term(term: Term, *, width: int = 80) -> str:
    """Render a term as an s-expression (the canonical concrete syntax)."""
    return format_sexp(term.to_sexp(), width=width)


def _format_atom(term: Term) -> str:
    if term.is_number:
        value = term.value
        if isinstance(value, float) and value.is_integer() and abs(value) < 1e16:
            return f"{value:g}"
        return f"{value}"
    return str(term.op)


def _flat_lengths(term: Term) -> Dict[int, int]:
    """The length of every subterm's one-line rendering, by ``id``."""
    lengths: Dict[int, int] = {}
    pending = [term]
    while pending:
        node = pending.pop()
        missing = [child for child in node.children if id(child) not in lengths]
        if missing:
            pending.append(node)
            pending.extend(missing)
        elif node.is_leaf:
            lengths[id(node)] = len(_format_atom(node))
        else:
            # ``op (a, b)``: `` (`` and ``)`` add 3 characters, each ``, `` 2.
            kids = node.children
            lengths[id(node)] = len(str(node.op)) + 1 + 2 * len(kids) + sum(
                lengths[id(child)] for child in kids
            )
    return lengths


def format_openscad_like(term: Term, *, indent: int = 0, width: int = 72) -> str:
    """Render a term in the paper's ``Op (arg, arg, ...)`` notation.

    A term whose one-line rendering fits in ``width`` at its indentation is
    written on one line (and then so is each subterm); any other puts each
    argument on a line of its own, two columns deeper.  Explicit stacks,
    not recursion, so a chain of any depth renders.
    """
    lengths = _flat_lengths(term)
    out: List[str] = []
    # Work items: a term to render at a column, or finished text.
    pending: List[Union[Tuple[Term, int], str]] = [(term, indent)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, column = item
        if node.is_leaf:
            out.append(_format_atom(node))
            continue
        if lengths[id(node)] + column <= width:
            out.append(f"{node.op} (")
            separator = ", "
        else:
            out.append(f"{node.op}\n{' ' * column}( ")
            separator = ",\n" + " " * (column + 2)
        pending.append(")")
        for position in range(len(node.children) - 1, -1, -1):
            pending.append((node.children[position], column + 2))
            if position:
                pending.append(separator)
    return "".join(out)


def line_count(term: Term, *, width: int = 72) -> int:
    """Number of lines in the OpenSCAD-like rendering.

    The paper quotes program sizes informally in "lines" (a 300-line gear CSG
    becomes a 16-line LambdaCAD program); this helper lets the examples and
    the experiment report make the same comparison.
    """
    return format_openscad_like(term, width=width).count("\n") + 1
