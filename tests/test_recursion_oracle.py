"""The explicit-stack printer, loop finder and structural checks against the recursive ones.

``tests/recursion_oracle.py`` holds ``format_openscad_like``,
``find_loops`` and ``function_kinds`` as they were when they recursed once
per node, and the structural checks as they were when they recursed once
per ``Diff`` level.  Both designs run on random terms (any width and
indentation for the printer, flat CSG pairs for the checks) and on every
pinned top-k candidate, and must give the same text, the same loop
descriptors, the same function kinds, the same normal forms and the same
verdicts.  ``tests/test_deep_inputs.py`` covers the depths only the new
walks reach.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import recursion_oracle as oracle
from repro.benchsuite.suite import BENCHMARKS
from repro.cad.evaluator import unroll
from repro.core.analysis import find_loops, function_kinds
from repro.csg.pretty import format_openscad_like
from repro.lang.canon import term_from_canonical
from repro.lang.term import Term
from repro.verify.structural import (
    Boolean,
    Leaf,
    LeafMatcher,
    UnsupportedTerm,
    _Normalizer,
    _entries,
    equivalent_modulo_reordering,
)

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


# ---------------------------------------------------------------------------
# The structural checks
# ---------------------------------------------------------------------------

_vector = st.tuples(*[st.sampled_from([0, 1, 2, -1.5, 0.5, 1e-7, 90]).map(Term)] * 3)
#: Flat CSG, with ``Scale 0`` as a singular layer, and numbers and ``Cons``
#: as solids no normal form accepts (each names itself in the error).
_csg = st.recursive(
    st.sampled_from(["Cube", "Unit", "Sphere", "Cylinder", "Empty", 7, 2.5]).map(Term),
    lambda children: st.one_of(
        st.builds(
            lambda op, v, c: Term(op, (*v, c)),
            st.sampled_from(["Translate", "Scale", "Rotate"]),
            _vector,
            children,
        ),
        st.builds(
            lambda op, a, b: Term(op, (a, b)),
            st.sampled_from(["Union", "Inter", "Diff", "Union", "Inter", "Diff", "Cons"]),
            children,
            children,
        ),
    ),
    max_leaves=30,
)


def _respelled(term: Term, random) -> Term:
    """``term`` with the operands of some ``Union``/``Inter`` nodes swapped."""
    children = tuple(_respelled(child, random) for child in term.children)
    if term.op in ("Union", "Inter") and random.random() < 0.5:
        children = children[::-1]
    return Term(term.op, children) if children else term


def _shape(node):
    if isinstance(node, Leaf):
        return ("leaf", node.name, _entries(node.matrix))
    if isinstance(node, Boolean):
        return (node.op, tuple(_shape(operand) for operand in node.operands))
    return ("opaque", _entries(node.matrix), _shape(node.child))


def _normal_form(normalizer, term):
    try:
        return _shape(normalizer.normal(term, oracle._IDENTITY))
    except UnsupportedTerm as exc:
        return str(exc)


def _verdicts(check, matcher, a, b):
    return check(a, b), check(a, b, 0.0), matcher.terms_equivalent(a, b), matcher.compared


def _same_verdicts(a, b):
    assert _verdicts(equivalent_modulo_reordering, LeafMatcher(), a, b) == _verdicts(
        oracle.equivalent_modulo_reordering, oracle.RecursiveLeafMatcher(), a, b
    )


@settings(max_examples=300, deadline=None)
@given(_csg, _csg, st.randoms(use_true_random=False))
def test_the_structural_checks_match_the_recursive_ones(a, b, random):
    assert _normal_form(_Normalizer(), a) == _normal_form(oracle.RecursiveNormalizer(), a)
    for x, y in ((a, a), (a, _respelled(a, random)), (a, b)):
        _same_verdicts(x, y)


def test_every_golden_table1_candidate_checks_as_before():
    inputs = {benchmark.name: benchmark.build() for benchmark in BENCHMARKS}
    golden = json.loads((_ROOT / "perfbench" / "golden" / "table1_topk.json").read_text())
    for name, texts in golden.items():
        for text in texts:
            unrolled = unroll(term_from_canonical(text))
            _same_verdicts(inputs[name], unrolled)
            assert _normal_form(_Normalizer(), unrolled) == _normal_form(
                oracle.RecursiveNormalizer(), unrolled
            )
