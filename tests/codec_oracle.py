"""The recursive term codec, kept as the oracle the iterative one is diffed against.

This is the reader, printer, term conversion, bottom-up map and the four
normalization passes as they were before the codec became iterative,
moved here verbatim (methods became functions taking the term first, and
the passes call this module's :func:`map_bottom_up`).  They recurse once
per node and rebuild every node on every pass, so they are only fit for
small inputs; ``tests/test_codec_oracle.py`` runs both designs on random
terms and texts and requires the same terms, texts, errors, normal forms
and ``map_bottom_up`` call order.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.lang.normal import (
    CANONICAL_PARAM_PREFIX,
    COMMUTATIVE_OPS,
    _canonical_affine_step,
    _flatten_chain,
    canonical_number_value,
)
from repro.lang.sexp import Sexp, SexpError
from repro.lang.term import Term, TermError

# ---------------------------------------------------------------------------
# Reader (was repro.lang.sexp)
# ---------------------------------------------------------------------------

_DELIMITERS = "()"
_WHITESPACE = " \t\r\n"


@dataclass
class _Token:
    """A lexical token with its source position."""

    kind: str  # "(", ")", or "atom"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    """Yield tokens from ``text``, tracking line/column for error messages."""
    line = 1
    column = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
        elif ch in _WHITESPACE:
            column += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _DELIMITERS:
            yield _Token(ch, ch, line, column)
            column += 1
            i += 1
        else:
            start = i
            start_col = column
            while i < n and text[i] not in _WHITESPACE + _DELIMITERS + ";":
                i += 1
                column += 1
            yield _Token("atom", text[start:i], line, start_col)


def _parse_atom(text: str) -> Sexp:
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
    results: list = []
    stack: list = []
    last_line = 1
    last_col = 1
    for token in _tokenize(text):
        last_line, last_col = token.line, token.column
        if token.kind == "(":
            stack.append([])
        elif token.kind == ")":
            if not stack:
                raise SexpError("unbalanced ')'", token.line, token.column)
            finished = stack.pop()
            if stack:
                stack[-1].append(finished)
            else:
                results.append(finished)
        else:
            atom = _parse_atom(token.text)
            if stack:
                stack[-1].append(atom)
            else:
                results.append(atom)
    if stack:
        raise SexpError("unbalanced '(': unexpected end of input", last_line, last_col)
    return results


def parse_sexp(text: str) -> Sexp:
    """Parse exactly one s-expression from ``text``."""
    results = parse_many(text)
    if not results:
        raise SexpError("empty input")
    if len(results) > 1:
        raise SexpError(f"expected a single s-expression, found {len(results)}")
    return results[0]


# ---------------------------------------------------------------------------
# Printer (was repro.lang.sexp)
# ---------------------------------------------------------------------------


def _format_atom(atom: Sexp) -> str:
    if isinstance(atom, bool):
        return "true" if atom else "false"
    if isinstance(atom, float):
        if atom == int(atom) and abs(atom) < 1e16:
            if atom == 0.0:
                return "0.0"
            return f"{atom:.1f}"
        return repr(atom)
    return str(atom)


def format_sexp(sexp: Sexp, *, width: int = 80, indent: int = 0) -> str:
    """Render ``sexp`` back to text (single line, or broken after the head)."""
    flat = _format_flat(sexp)
    if len(flat) + indent <= width:
        return flat
    if not isinstance(sexp, list) or not sexp:
        return flat
    head = _format_flat(sexp[0])
    pad = " " * (indent + 2)
    parts = [
        format_sexp(child, width=width, indent=indent + 2) for child in sexp[1:]
    ]
    body = ("\n" + pad).join(parts)
    return f"({head}\n{pad}{body})"


def _format_flat(sexp: Sexp) -> str:
    if isinstance(sexp, list):
        return "(" + " ".join(_format_flat(child) for child in sexp) + ")"
    return _format_atom(sexp)


# ---------------------------------------------------------------------------
# Term conversion (was repro.lang.term.Term)
# ---------------------------------------------------------------------------


def from_sexp(sexp: Sexp) -> Term:
    """Build a term from a parsed s-expression."""
    if isinstance(sexp, list):
        if not sexp:
            raise TermError("cannot convert empty list to a term")
        head = sexp[0]
        if isinstance(head, list):
            raise TermError(f"operator position holds a list: {head!r}")
        children = tuple(from_sexp(child) for child in sexp[1:])
        return Term(head, children)
    return Term(sexp)


def parse(text: str) -> Term:
    """Parse a term from s-expression text."""
    return from_sexp(parse_sexp(text))


def to_sexp(term: Term) -> Sexp:
    """Convert the term back to a nested-list s-expression."""
    if not term.children:
        return term.op
    return [term.op] + [to_sexp(child) for child in term.children]


def canonical_term_text(term: Term) -> str:
    """The canonical single-line rendering (was repro.lang.canon)."""
    return format_sexp(to_sexp(term), width=10 ** 9)


def map_bottom_up(term: Term, fn) -> Term:
    """Rewrite the term bottom-up: children first, then ``fn`` on the node."""
    rebuilt = Term(term.op, tuple(map_bottom_up(c, fn) for c in term.children))
    return fn(rebuilt)


# ---------------------------------------------------------------------------
# Normalization passes (was repro.lang.normal)
# ---------------------------------------------------------------------------


def _numeric_literals(term: Term) -> Term:
    def unify(node: Term) -> Term:
        if node.is_number:
            canonical = canonical_number_value(node.value)
            if type(canonical) is not type(node.op):
                return Term(canonical)
        return node

    return map_bottom_up(term, unify)


def _affine_canonical(term: Term) -> Term:
    def step(node: Term) -> Term:
        while True:
            rewritten = _canonical_affine_step(node)
            if rewritten is None:
                return node
            node = rewritten

    for _ in range(term.size() + 8):
        rewritten = map_bottom_up(term, step)
        if rewritten == term:
            return term
        term = rewritten
    return term


def _alpha_rename(term: Term) -> Term:
    def rename(node: Term, env: Dict[str, str], depth: int) -> Term:
        if node.op == "Fun" and len(node.children) >= 2:
            *params, body = node.children
            scope = dict(env)
            renamed_params: List[Term] = []
            level = depth
            for param in params:
                if param.is_leaf and isinstance(param.op, str):
                    canonical = f"{CANONICAL_PARAM_PREFIX}{level}"
                    scope[param.op] = canonical
                    renamed_params.append(Term(canonical))
                    level += 1
                else:  # malformed binder; leave it alone
                    renamed_params.append(rename(param, env, depth))
            return Term("Fun", tuple(renamed_params) + (rename(body, scope, level),))
        if (
            node.op == "Var"
            and len(node.children) == 1
            and node.children[0].is_leaf
            and isinstance(node.children[0].op, str)
        ):
            bound = env.get(node.children[0].op)
            if bound is not None and bound != node.children[0].op:
                return Term("Var", (Term(bound),))
            return node
        if node.is_leaf:
            return node
        return Term(node.op, tuple(rename(child, env, depth) for child in node.children))

    return rename(term, {}, 0)


def term_order_key(term: Term) -> tuple:
    """The nested-tuple total-order sort key."""
    return (_rounded_key(term), _exact_key(term))


def _rounded_key(term: Term) -> tuple:
    if term.is_number:
        return (0, round(float(term.value), 2))
    return (1, str(term.op), tuple(_rounded_key(child) for child in term.children))


def _exact_key(term: Term) -> tuple:
    if term.is_number:
        return (0, float(term.value), 0 if isinstance(term.op, int) else 1)
    return (1, str(term.op), tuple(_exact_key(child) for child in term.children))


def _commutative_sort(term: Term) -> Term:
    def sort(node: Term) -> Term:
        if node.op in COMMUTATIVE_OPS and len(node.children) == 2:
            operands = [sort(operand) for operand in _flatten_chain(node, node.op)]
            operands.sort(key=term_order_key)
            result = operands[-1]
            for operand in reversed(operands[:-1]):
                result = Term(node.op, (operand, result))
            return result
        if node.is_leaf:
            return node
        return Term(node.op, tuple(sort(child) for child in node.children))

    return sort(term)


#: The four passes in pipeline order, by the names ``repro.lang.normal`` uses.
PASSES = (
    ("numeric-literals", _numeric_literals),
    ("affine-canonical", _affine_canonical),
    ("alpha-rename", _alpha_rename),
    ("commutative-sort", _commutative_sort),
)


def normalize(term: Term) -> Term:
    """Apply the four passes in order."""
    for _, normalization_pass in PASSES:
        term = normalization_pass(term)
    return term
