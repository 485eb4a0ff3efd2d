"""Deep inputs: no step recurses once per list element.

A flat model of n parts is a chain n deep, and folding it leaves list
spines n long.  Adding and looking up terms, reading spines, adding
inferred terms and extracting all walk such chains from explicit stacks,
and so do the steps off the synthesis path: parsing and printing
canonical text, both cache keys (normalization included), term equality,
the Table 1 metrics, storing a result, validating flat CSG and the OpenSCAD
round trip.  Their depth is bounded by
memory, not by Python's recursion limit.  Each blocking test below builds
a chain five times deeper than that limit.
"""

from __future__ import annotations

import sys

import pytest

from repro.benchsuite import models
from repro.benchsuite.variants import semantic_variant
from repro.cad.ops import uses_loops
from repro.core.config import SynthesisConfig
from repro.core.determinize import Determinizer
from repro.core.lists import read_list_elements
from repro.core.pipeline import CandidateProgram, SynthesisResult, synthesize
from repro.csg.build import cube
from repro.csg.metrics import measure
from repro.csg.parser import parse_csg
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import Extractor, TopKExtractor, ast_size_cost
from repro.lang.canon import canonical_term_text, term_from_canonical
from repro.lang.normal import normalize
from repro.lang.term import Term
from repro.scad.emit import emit_openscad
from repro.scad.flatten import flatten_source
from repro.service.cache import ResultCache, cache_key, semantic_cache_key
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


def _unpriced_ast_size(op, child_costs):
    """``ast-size`` under another name: the best-cost slots do not price it,
    so every rank is read from the streams."""
    return ast_size_cost(op, child_costs)


@pytest.mark.parametrize("slot_priced", [False, True])
def test_extract_a_deep_chain(slot_priced):
    egraph = EGraph()
    term = _union_chain()
    root = egraph.add_term(term)
    cost = float(2 * DEPTH + 1)
    cost_function = ast_size_cost if slot_priced else _unpriced_ast_size
    extractor = TopKExtractor(egraph, cost_function, k=3)
    assert extractor._engine.priced == slot_priced
    (only,) = extractor.extract_top_k(root)
    assert only.cost == cost and _same(only.term, term)
    (per_enode,) = extractor.best_per_enode(root)
    assert per_enode.cost == cost and _same(per_enode.term, term)
    single = Extractor(egraph)
    assert single.cost_of(root) == cost and _same(single.extract(root), term)


def _translate_tower(depth: int = DEPTH) -> Term:
    """``Diff`` over ``depth`` nested translations of a cube: deep, not a chain
    the commutative sort flattens, with an affine layer at every level."""
    term = Term("Cube")
    for i in range(depth):
        term = Term("Translate", (Term(float(i % 3)), Term(0), Term(1.0), term))
    return Term("Diff", (term, Term("Sphere")))


def _binder_nest(depth: int = DEPTH) -> Term:
    """``depth`` nested binders of one name, each body using its parameter."""
    term = Term("Var", (Term("x"),))
    for _ in range(depth):
        term = Term("Fun", (Term("x"), Term("Union", (Term("Var", (Term("x"),)), term))))
    return term


def test_canonical_text_of_a_deep_chain_round_trips():
    term = _union_chain()
    text = canonical_term_text(term)
    assert text.startswith("(Union 0.0 (Union 1.0 ") and text.endswith(" Empty" + ")" * DEPTH)
    assert str(term) == text
    parsed = term_from_canonical(text)
    assert parsed == term and parsed is not term
    assert canonical_term_text(parsed) == text
    assert Term.from_sexp(term.to_sexp()) == term


def test_equal_but_distinct_deep_chains_compare_equal():
    assert _union_chain() == _union_chain()
    assert _union_chain() != _union_chain(DEPTH - 1)
    assert _union_chain() != _chain("Union", [Term(float(i)) for i in range(DEPTH)], Term("Cube"))


@pytest.mark.parametrize("build", [_union_chain, _translate_tower, _binder_nest])
def test_both_keys_of_a_deep_term_and_normalize_is_idempotent(build):
    term = build()
    config = SynthesisConfig()
    assert cache_key(term, config) == cache_key(build(), config)
    assert semantic_cache_key(term, config) == semantic_cache_key(build(), config)
    normal = normalize(term)
    assert normalize(normal) is normal


def test_metrics_of_a_deep_chain():
    term = _union_chain()
    metrics = measure(term)
    assert (metrics.nodes, metrics.primitives, metrics.depth) == (2 * DEPTH + 1, 0, DEPTH + 1)
    assert term.count("Union") == DEPTH and "Empty" in term.operators()
    assert not uses_loops(term)


def test_a_deep_result_is_stored_and_decoded():
    term = _union_chain()
    result = SynthesisResult(
        input_term=term,
        candidates=[CandidateProgram(rank=1, cost=float(term.size()), term=term)],
        config=SynthesisConfig(),
    )
    payload = result.to_dict()
    decoded = SynthesisResult.from_dict(payload)
    assert decoded.input_term == term and decoded.candidates[0].term == term
    assert decoded.to_dict() == payload


def test_a_1000_part_array_has_keys_and_metrics():
    model = models.linear_array(1000, (3, 0, 0), cube())
    config = SynthesisConfig()
    assert len({cache_key(model, config), semantic_cache_key(model, config)}) == 2
    metrics = measure(model)
    assert metrics.primitives == 1000 and metrics.depth > 1000


def test_a_2000_part_array_emits_flat_openscad_that_flattens_back():
    small = emit_openscad(models.linear_array(1000, (3, 0, 0), cube()))
    model = models.linear_array(2000, (3, 0, 0), cube())
    text = emit_openscad(model)
    # One block per union chain: the text grows with the part count, not
    # with the part count times its nesting depth.
    assert len(text) <= 2.1 * len(small)
    assert validate_synthesis(model, flatten_source(text)).valid


def test_parse_csg_accepts_a_2000_part_array():
    model = models.linear_array(2000, (3, 0, 0), cube())
    assert _same(parse_csg(canonical_term_text(model)), model)


@pytest.mark.slow
def test_a_400_part_array_synthesizes_and_validates(tmp_path):
    model = models.linear_array(400, (3, 0, 0), cube())
    result = synthesize(model)
    assert result.candidates[0].has_loops
    for candidate in result.candidates:
        assert validate_synthesis(model, candidate.term).valid, candidate.rank
    # Stored and served back under both keys, as a service would.
    config = result.config
    key, semantic_key = cache_key(model, config), semantic_cache_key(model, config)
    ResultCache(tmp_path).put(key, result.to_dict(), semantic_key)
    respelled = semantic_variant(model)
    for probe_key, probe_semantic, tier in [
        (key, semantic_key, "exact"),
        (cache_key(respelled, config), semantic_cache_key(respelled, config), "semantic"),
    ]:
        payload, found = ResultCache(tmp_path).lookup(probe_key, probe_semantic)
        assert found == tier
        served = SynthesisResult.from_dict(payload)
        assert [canonical_term_text(c.term) for c in served.candidates] == [
            canonical_term_text(c.term) for c in result.candidates
        ]
