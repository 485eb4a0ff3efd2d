"""S-expression reader and printer.

The paper serializes both CSG inputs and LambdaCAD outputs as s-expressions
(via Janestreet's ``@deriving sexp``).  We use the same concrete syntax so
programs round-trip cleanly:

* an *atom* is a symbol (``Union``, ``Translate``, ``x``), an integer, or a
  float;
* a *list* is a parenthesized, whitespace-separated sequence of s-expressions;
* line comments start with ``;`` and run to end of line.

**Reading.**  One compiled regular expression, :func:`tokens`, splits text
into ``(``, ``)`` and atom spellings (whitespace is exactly space, tab,
CR and LF).  :func:`parse_many`/:func:`parse_sexp` build nested lists from
it, and :meth:`repro.lang.term.Term.parse` builds terms from it directly.
Tokens carry no positions: line and column are computed from the token's
offset only when a parse fails, and reported in the :class:`SexpError`.

**Printing.**  :func:`format_sexp` renders nested lists either on one line
or width-limited; it walks explicit stacks, so its depth is bounded by
memory, not by Python's recursion limit.  :func:`format_atom` is the one
atom spelling shared with the canonical term emitter
(:mod:`repro.lang.canon`).
"""

from __future__ import annotations

import re
from typing import Dict, List, Union

#: A parsed s-expression: an atom (``str``, ``int``, ``float``) or a nested
#: list of s-expressions.
Sexp = Union[str, int, float, list]


class SexpError(ValueError):
    """Raised when s-expression text cannot be parsed or printed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


#: A comment, a parenthesis, or an atom (a run of anything else that is not
#: whitespace); whitespace between tokens matches nothing and is skipped.
_TOKEN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")


def tokens(text: str) -> List[str]:
    """The ``(``, ``)`` and atom spellings of ``text``, comments dropped."""
    found = _TOKEN.findall(text)
    if ";" in text:
        found = [token for token in found if token[0] != ";"]
    return found


def _token_offset(text: str, index: int) -> int:
    """The offset in ``text`` of the ``index``-th token of :func:`tokens`."""
    for match in _TOKEN.finditer(text):
        if match.group()[0] != ";":
            if not index:
                return match.start()
            index -= 1
    raise IndexError(index)


def _error_at(message: str, text: str, index: int) -> SexpError:
    """A :class:`SexpError` located at the ``index``-th token of ``text``."""
    offset = _token_offset(text, index)
    line = text.count("\n", 0, offset) + 1
    return SexpError(message, line, offset - text.rfind("\n", 0, offset))


def _unbalanced(text: str, found: List[str]) -> SexpError:
    """The error for the token list of ``text``, whose parentheses do not balance.

    Either the first ``)`` that closes nothing, or — when every ``)`` has
    its ``(`` — the end of input, located at the last token.
    """
    depth = 0
    for index, token in enumerate(found):
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0:
                return _error_at("unbalanced ')'", text, index)
    return _error_at("unbalanced '(': unexpected end of input", text, len(found) - 1)


def parse_atom(text: str) -> Sexp:
    """Interpret an atom token as an int, float, or symbol string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_many(text: str) -> list:
    """Parse all s-expressions in ``text`` and return them as a list."""
    found = tokens(text)
    atoms: Dict[str, Sexp] = {}
    results: list = []
    current = results
    stack: list = []
    for token in found:
        if token == "(":
            stack.append(current)
            current = []
        elif token == ")":
            if not stack:
                raise _unbalanced(text, found)
            finished = current
            current = stack.pop()
            current.append(finished)
        else:
            atom = atoms.get(token)
            if atom is None:
                atom = atoms[token] = parse_atom(token)
            current.append(atom)
    if stack:
        raise _unbalanced(text, found)
    return results


def parse_sexp(text: str) -> Sexp:
    """Parse exactly one s-expression from ``text``.

    Raises :class:`SexpError` when the text is empty, malformed, or contains
    more than one top-level expression.
    """
    results = parse_many(text)
    if not results:
        raise SexpError("empty input")
    if len(results) > 1:
        raise SexpError(f"expected a single s-expression, found {len(results)}")
    return results[0]


def format_atom(atom: Sexp) -> str:
    """The printed spelling of one atom.

    Integral floats keep their ``.0`` (the languages treat ints and floats
    alike, but the spellings stay distinct), ``-0.0`` prints as ``0.0``,
    other floats print their exact ``repr``.  A non-finite float has no
    spelling the reader maps back to the same value class, so it raises
    :class:`SexpError` naming it.
    """
    if isinstance(atom, bool):
        return "true" if atom else "false"
    if isinstance(atom, float):
        # Render floats without exponent noise where possible; keep integral
        # floats distinguishable from ints (the languages treat both as R).
        try:
            integral = atom == int(atom)
        except (OverflowError, ValueError):
            raise SexpError(f"cannot print the non-finite number {atom!r}") from None
        if integral and abs(atom) < 1e16:
            # IEEE negative zero compares equal to 0.0 (and hashes the same),
            # so Term(-0.0) == Term(0.0); rendering the sign would give two
            # equal terms distinct canonical texts — and therefore distinct
            # cache fingerprints — violating structural determinism.
            if atom == 0.0:
                return "0.0"
            return f"{atom:.1f}"
        return repr(atom)
    return str(atom)


def format_sexp(sexp: Sexp, *, width: int = 80, indent: int = 0) -> str:
    """Render ``sexp`` back to text.

    The renderer prefers a single line; when a list does not fit in ``width``
    columns, it breaks after the head symbol and indents the arguments by two
    spaces, which matches how the paper typesets its programs.
    """
    out: List[str] = []
    _emit_flat(sexp, out)
    flat = "".join(out)
    if len(flat) + indent <= width or not isinstance(sexp, list) or not sexp:
        return flat
    lengths = _flat_lengths(sexp)
    out = []
    stack: list = [(sexp, indent)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, column = item
        if not isinstance(node, list) or not node or lengths[id(node)] + column <= width:
            _emit_flat(node, out)
            continue
        out.append("(")
        _emit_flat(node[0], out)
        pad = "\n" + " " * (column + 2)
        stack.append(")")
        for child in reversed(node[1:]):
            stack.append((child, column + 2))
            stack.append(pad)
        if len(node) == 1:
            stack.append(pad)
    return "".join(out)


def _emit_flat(sexp: Sexp, out: List[str]) -> None:
    """Append the single-line rendering of ``sexp`` to ``out``."""
    if not isinstance(sexp, list):
        out.append(format_atom(sexp))
        return
    out.append("(")
    stack = [iter(sexp)]
    first = True
    while stack:
        for item in stack[-1]:
            if not first:
                out.append(" ")
            if isinstance(item, list):
                out.append("(")
                stack.append(iter(item))
                first = True
                break
            out.append(format_atom(item))
            first = False
        else:
            stack.pop()
            out.append(")")
            first = False


def _flat_lengths(root: list) -> Dict[int, int]:
    """The single-line length of every list under ``root``, by ``id``."""
    lengths: Dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            total = len(node) + 1 if node else 2
            for item in node:
                total += lengths[id(item)] if isinstance(item, list) else len(format_atom(item))
            lengths[id(node)] = total
        elif id(node) not in lengths:
            stack.append((node, True))
            stack.extend((item, False) for item in node if isinstance(item, list))
    return lengths
