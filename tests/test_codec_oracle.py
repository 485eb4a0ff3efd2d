"""The iterative term codec against the recursive one it replaced.

``tests/codec_oracle.py`` holds the reader, printer, term conversion,
``map_bottom_up`` and normalization passes as they were before they became
iterative.  Both designs run on random terms and random (often malformed)
texts, and must agree on:

* the parsed term, operator types included (``1`` is not ``1.0``);
* the canonical text, ``str``, the nested-list form and ``format_sexp``
  at any width;
* the exception a malformed text raises: type, message, line and column;
* every normalization pass and the whole pipeline;
* the order in which ``map_bottom_up`` calls its function, and its result.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codec_oracle as oracle
from repro.csg.parser import CsgSyntaxError, parse_term
from repro.lang.canon import canonical_term_text, term_from_canonical
from repro.lang.normal import DEFAULT_PASSES, normalize
from repro.lang.sexp import SexpError, format_sexp, parse_many, parse_sexp
from repro.lang.term import Term

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_floats = st.one_of(
    st.integers(-1000, 1000).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-7, 2.5e-5, 1e16, 1e22, -3.25e17, 0.1, 123456789.125]),
)
_numbers = st.one_of(st.integers(-(10 ** 20), 10 ** 20), _floats).map(Term)
#: Vector components that make affine layers fuse, commute and drop.
_vector = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.5, -3.0, 90, 90.0, 0.5]).map(Term)
_names = st.sampled_from(["x", "y", "i", "j", "$0", "$1"])
_leaves = st.one_of(
    st.sampled_from(["Cube", "Sphere", "Cylinder", "Empty", "External", "x", "i"]).map(Term),
    _numbers,
)


def _nodes(children):
    return st.one_of(
        st.builds(
            lambda op, v, c: Term(op, (*v, c)),
            st.sampled_from(["Translate", "Scale", "Rotate"]),
            st.tuples(_vector, _vector, _vector),
            children,
        ),
        st.builds(
            lambda op, a, b: Term(op, (a, b)),
            st.sampled_from(["Union", "Union", "Inter", "Diff"]),
            children,
            children,
        ),
        st.builds(
            lambda params, body: Term("Fun", (*params, body)),
            st.lists(st.one_of(_names.map(Term), children), min_size=1, max_size=3),
            children,
        ),
        st.builds(lambda name: Term("Var", (Term(name),)), _names),
        st.builds(
            lambda op, kids: Term(op, tuple(kids)),
            st.sampled_from(["Repeat", "Fold", "Mapi", "Cons", "Fun"]),
            st.lists(children, min_size=1, max_size=4),
        ),
    )


_terms = st.recursive(_leaves, _nodes, max_leaves=40)

#: Fragments of well-formed and malformed s-expression text.
_fragments = st.sampled_from(
    [
        "(", "(", ")", ")", " ", "  ", "\t", "\n", "\r\n", "\r", "; note\n", ";x",
        "Cube", "Union", "Translate", "a", "1", "-2", "2.5", "-0.0", "1e3", "1E-2",
        "+4", "1_0", "inf", "nan", ".5", "0x1f", "é",
    ]
)
_texts = st.lists(_fragments, max_size=24).map("".join)

_MALFORMED = [
    "",
    "   ",
    "; only a comment",
    "()",
    "(())",
    "((a) b)",
    "(((a b) c) d)",
    "(",
    ")",
    "(a))",
    "(a",
    "a b",
    "(a) (b)",
    "(1 2)",
    "(2.5 Cube)",
    "(a ())",
    "(a (1 x) ())",
    "(a\n  (b\n\t(c)",
    "(a)\r\n)",
    "; c\n  (Union Cube ; c\n Sphere))",
    "(Union Cube\n   Sphere",
]

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _shape(term: Term) -> list:
    """The term in pre-order as (operator type, operator repr, arity)."""
    out, stack = [], [term]
    while stack:
        node = stack.pop()
        out.append((type(node.op).__name__, repr(node.op), len(node.children)))
        stack.extend(reversed(node.children))
    return out


def _typed(sexp):
    """A nested list with every atom tagged by its type."""
    if isinstance(sexp, list):
        return [_typed(item) for item in sexp]
    return (type(sexp).__name__, repr(sexp))


def _outcome(fn, text, convert):
    """``("ok", converted result)`` or ``("raised", type, message, line, column)``."""
    try:
        value = fn(text)
    except ValueError as exc:  # SexpError, TermError and CsgSyntaxError
        return ("raised", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return ("ok", convert(value))


# ---------------------------------------------------------------------------
# Terms: parse, print, convert
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_texts_and_terms_agree(term):
    text = oracle.canonical_term_text(term)
    assert canonical_term_text(term) == text
    assert str(term) == text
    expected = _shape(oracle.parse(text))
    assert _shape(Term.parse(text)) == expected
    assert _shape(term_from_canonical(text)) == expected
    assert _shape(parse_term(text)) == expected
    assert Term.parse(text) == term


@settings(max_examples=200, deadline=None)
@given(_terms, st.integers(0, 120), st.integers(0, 6))
def test_nested_lists_and_layouts_agree(term, width, indent):
    sexp = oracle.to_sexp(term)
    assert _typed(term.to_sexp()) == _typed(sexp)
    assert _shape(Term.from_sexp(sexp)) == _shape(oracle.from_sexp(sexp))
    assert format_sexp(sexp, width=width, indent=indent) == oracle.format_sexp(
        sexp, width=width, indent=indent
    )
    assert term.pretty(width) == oracle.format_sexp(sexp, width=width)


def _with_malformed_examples(test):
    """Run ``test`` on every fixed malformed text besides the random ones."""
    for text in _MALFORMED:
        test = example(text)(test)
    return test


@_with_malformed_examples
@settings(max_examples=400, deadline=None)
@given(_texts)
def test_texts_parse_or_fail_like_the_oracle(text):
    assert _outcome(Term.parse, text, _shape) == _outcome(oracle.parse, text, _shape)
    assert _outcome(parse_sexp, text, _typed) == _outcome(oracle.parse_sexp, text, _typed)
    assert _outcome(parse_many, text, _typed) == _outcome(oracle.parse_many, text, _typed)
    ours = _outcome(parse_term, text, _shape)
    theirs = _outcome(oracle.parse, text, _shape)
    if theirs[0] == "raised":
        assert ours[:3] == ("raised", CsgSyntaxError, theirs[2])
    else:
        assert ours == theirs


def test_error_positions_are_the_oracles():
    cases = {
        "(a))": (1, 4),
        "(a\n  (b\n\t(c)": (3, 4),
        "(a)\r\n)": (2, 1),
        "x\n ; c )\n  )": (3, 3),
    }
    for text, position in cases.items():
        with pytest.raises(SexpError) as ours:
            Term.parse(text)
        with pytest.raises(SexpError) as theirs:
            oracle.parse(text)
        assert (ours.value.line, ours.value.column) == position
        assert str(ours.value) == str(theirs.value)


# ---------------------------------------------------------------------------
# map_bottom_up and the normalization passes
# ---------------------------------------------------------------------------


def _recording(log):
    """A rewrite that logs each node it sees and bumps every int literal."""

    def fn(node: Term) -> Term:
        log.append(_shape(node))
        if isinstance(node.op, int):
            return Term(node.op + 1)
        return node

    return fn


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_map_bottom_up_calls_in_the_oracles_order(term):
    ours, theirs = [], []
    result = term.map_bottom_up(_recording(ours))
    expected = oracle.map_bottom_up(term, _recording(theirs))
    assert ours == theirs
    assert _shape(result) == _shape(expected)
    assert term.map_bottom_up(lambda node: node) is term


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_normalization_agrees_pass_by_pass(term):
    for normalization_pass, (name, oracle_pass) in zip(DEFAULT_PASSES, oracle.PASSES):
        assert normalization_pass.name == name
        assert _shape(normalization_pass(term)) == _shape(oracle_pass(term)), name
    normal = normalize(term)
    assert _shape(normal) == _shape(oracle.normalize(term))
    assert normalize(normal) is normal
