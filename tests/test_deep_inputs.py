"""Deep inputs on the synthesis path: no step recurses once per list element.

A flat model of n parts is a chain n deep, and folding it leaves list
spines n long.  Adding and looking up terms, reading spines, adding
inferred terms and extracting all walk such chains from explicit stacks,
so their depth is bounded by memory, not by Python's recursion limit.
Each blocking test below builds a chain five times deeper than that limit.
"""

from __future__ import annotations

import sys

import pytest

from repro.benchsuite import models
from repro.core.determinize import Determinizer
from repro.core.lists import read_list_elements
from repro.core.pipeline import synthesize
from repro.csg.build import cube
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import CostAnalysis, Extractor, TopKExtractor, ast_size_cost
from repro.lang.term import Term
from repro.verify.validate import validate_synthesis

DEPTH = 5_000
assert DEPTH > 4 * sys.getrecursionlimit()


def _chain(op: str, leaves, tail: Term) -> Term:
    """``(op leaf0 (op leaf1 (... tail)))``, built without recursion."""
    term = tail
    for leaf in reversed(leaves):
        term = Term(op, (leaf, term))
    return term


def _union_chain(depth: int = DEPTH) -> Term:
    return _chain("Union", [Term(float(i)) for i in range(depth)], Term("Empty"))


def _same(a: Term, b: Term) -> bool:
    """Structural equality without recursion (``==`` recurses on deep terms)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.op != y.op or type(x.op) is not type(y.op) or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def _recursive_add(egraph: EGraph, term: Term) -> int:
    """Reference: the recursive insertion order the iterative walk keeps."""
    args = tuple(_recursive_add(egraph, child) for child in term.children)
    return egraph.add_enode(ENode(term.op, args))


def test_add_term_keeps_the_recursive_id_order():
    term = Term.parse("(Union (Translate 1 2 3 Cube) (Union (Scale 1 2 3 Cube) Empty))")
    iterative, reference = EGraph(), EGraph()
    root = iterative.add_term(term)
    assert _recursive_add(reference, term) == root
    assert [c.id for c in iterative.classes()] == [c.id for c in reference.classes()]
    assert [c.flat for c in iterative.classes()] == [c.flat for c in reference.classes()]


def test_add_and_look_up_a_deep_union():
    egraph = EGraph()
    term = _union_chain()
    root = egraph.add_term(term)
    assert len(egraph) == 2 * DEPTH + 1  # DEPTH leaves, DEPTH unions, Empty
    assert egraph.lookup_term(term) == root
    assert egraph.lookup_term(_union_chain(DEPTH - 1)) != root
    assert egraph.lookup_term(Term("Union", (Term("missing"), term))) is None


def test_read_a_deep_cons_spine():
    egraph = EGraph()
    elements = [Term(float(i)) for i in range(DEPTH)]
    spine = egraph.add_term(_chain("Cons", elements, Term("Nil")))
    expected = [egraph.lookup_term(element) for element in elements]
    assert read_list_elements(egraph, spine) == expected


def test_merge_a_deep_inferred_term():
    egraph = EGraph()
    target = egraph.add_term(Term("target"))
    term = _union_chain()
    Determinizer(egraph).merge_term(target, term)
    egraph.rebuild()
    assert egraph.find(egraph.lookup_term(term)) == egraph.find(target)


@pytest.mark.parametrize("with_analysis", [False, True])
def test_extract_a_deep_chain(with_analysis):
    egraph = EGraph()
    if with_analysis:
        egraph.register_analysis(CostAnalysis(ast_size_cost))
    term = _union_chain()
    root = egraph.add_term(term)
    cost = float(2 * DEPTH + 1)
    extractor = TopKExtractor(egraph, ast_size_cost, k=3)
    (only,) = extractor.extract_top_k(root)
    assert only.cost == cost and _same(only.term, term)
    (per_enode,) = extractor.best_per_enode(root)
    assert per_enode.cost == cost and _same(per_enode.term, term)
    single = Extractor(egraph, ast_size_cost)
    assert single.cost_of(root) == cost and _same(single.extract(root), term)


@pytest.mark.slow
def test_a_400_part_array_synthesizes_and_validates():
    model = models.linear_array(400, (3, 0, 0), cube())
    result = synthesize(model)
    assert result.candidates[0].has_loops
    for candidate in result.candidates:
        assert validate_synthesis(model, candidate.term).valid, candidate.rank
