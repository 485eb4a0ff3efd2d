"""The explicit-stack printer and loop finder against the recursive ones.

``tests/recursion_oracle.py`` holds ``format_openscad_like``,
``find_loops`` and ``function_kinds`` as they were when they recursed once
per node.  Both designs run on random terms (any width and indentation for
the printer) and on every pinned top-k candidate, and must give the same
text, the same loop descriptors and the same function kinds.  ``tests/test_deep_inputs.py`` covers the depths only the new
walks reach.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import recursion_oracle as oracle
from repro.core.analysis import find_loops, function_kinds
from repro.csg.pretty import format_openscad_like
from repro.lang.canon import term_from_canonical
from repro.lang.term import Term

_ROOT = Path(__file__).resolve().parent.parent


def _golden_texts():
    """Every pinned candidate's canonical text: Table 1 and the top-k pins."""
    texts = [
        text
        for candidates in json.loads(
            (_ROOT / "perfbench" / "golden" / "table1_topk.json").read_text()
        ).values()
        for text in candidates
    ]
    for pin_set in ("reward_loops", "scale", "service"):
        pins = json.loads((_ROOT / "tests" / "data" / f"topk_pins_{pin_set}.json").read_text())
        texts += [text for pin in pins for _, text in pin["top_k"]]
    return texts


# ---------------------------------------------------------------------------
# Strategies: loop-shaped programs
# ---------------------------------------------------------------------------

_numbers = st.one_of(
    st.integers(-5, 12),
    st.sampled_from([0.0, 1.0, 2.5, -3.0, 1e16, 1e-7, 123456789.125]),
).map(Term)
_leaves = st.one_of(
    st.sampled_from(["Cube", "Sphere", "Nil", "Empty", "i", "j", "Union"]).map(Term),
    _numbers,
)
#: Lists with a static length: the spines loop bounds are read from.
_lists = st.recursive(
    st.one_of(
        st.just(Term("Nil")),
        st.builds(lambda x, n: Term("Repeat", (x, Term(n))), _leaves, st.integers(0, 9)),
    ),
    lambda inner: st.one_of(
        st.builds(lambda h, t: Term("Cons", (h, t)), _leaves, inner),
        st.builds(lambda a, b: Term("Concat", (a, b)), inner, inner),
    ),
    max_leaves=6,
)


def _nodes(children):
    two = st.tuples(children, children)
    body = st.builds(lambda b: Term("Fun", (Term("i"), b)), children)
    return st.one_of(
        # Loops over static lists, whose bodies hold more loops.
        st.builds(
            lambda op, f, items: Term(op, (f, items)), st.sampled_from(["Map", "Mapi"]),
            body, _lists,
        ),
        st.builds(lambda f, acc, items: Term("Fold", (f, acc, items)), body, children, _lists),
        # Any shape: lists of unknown length, folds of a boolean operator.
        st.builds(lambda h, t: Term("Cons", (h, t)), children, children),
        st.builds(lambda x, n: Term("Repeat", (x, n)), children, _numbers),
        st.builds(lambda ab: Term("Concat", ab), two),
        st.builds(
            lambda op, ab: Term(op, ab), st.sampled_from(["Map", "Mapi"]), two
        ),
        st.builds(
            lambda fun, acc, items: Term("Fold", (fun, acc, items)),
            st.one_of(body, st.just(Term("Union"))),
            children,
            children,
        ),
        st.builds(
            lambda op, v, c: Term(op, (*v, c)),
            st.sampled_from(["Translate", "Scale", "Rotate"]),
            st.tuples(_numbers, _numbers, _numbers),
            children,
        ),
        st.builds(
            lambda op, ab: Term(op, ab), st.sampled_from(["Union", "Diff", "Inter"]), two
        ),
        st.builds(
            lambda kids: Term("Fun", tuple(kids)), st.lists(children, min_size=1, max_size=3)
        ),
        st.builds(lambda op, x: Term(op, (x,)), st.sampled_from(["Sin", "Cos"]), children),
        st.builds(lambda x: Term("Mul", (x, x)), children),
        st.builds(lambda ab: Term("Mul", ab), two),
    )


_terms = st.recursive(_leaves, _nodes, max_leaves=40)


# ---------------------------------------------------------------------------
# The printer
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_terms, st.integers(0, 12), st.integers(0, 100))
def test_the_printer_matches_the_recursive_one(term, indent, width):
    assert format_openscad_like(term, indent=indent, width=width) == (
        oracle.format_openscad_like(term, indent=indent, width=width)
    )


def test_a_shared_subterm_prints_at_each_of_its_indentations():
    shared = Term.parse("(Translate 1 2 3 (Scale 4 5 6 Cube))")
    term = Term("Union", (shared, Term("Union", (shared, shared))))
    for width in (0, 20, 40, 72):
        assert format_openscad_like(term, width=width) == oracle.format_openscad_like(
            term, width=width
        )


# ---------------------------------------------------------------------------
# The program summaries
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_the_summaries_match_the_recursive_ones(term):
    assert find_loops(term) == oracle.find_loops(term)
    assert function_kinds(term) == oracle.function_kinds(term)


def test_every_golden_candidate_prints_and_summarizes_as_before():
    texts = _golden_texts()
    assert len(texts) > 800
    looped = 0
    for text in texts:
        term = term_from_canonical(text)
        loops = find_loops(term)
        assert loops == oracle.find_loops(term), text
        assert function_kinds(term) == oracle.function_kinds(term), text
        assert format_openscad_like(term) == oracle.format_openscad_like(term), text
        looped += bool(loops)
    assert looped > 400
