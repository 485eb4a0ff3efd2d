"""The signature memo, the gate and the shared spine reader against the code they replaced.

``tests/determinize_oracle.py`` keeps the old paths: the per-list spine
reader, ``determinize_all`` walking the first element's signatures with no
memo, loop inference without the gate and with its own term walker, and
the eager full-list attempt.  Here production must

* read every spine exactly as the per-list reader does, on random e-graphs
  of ``Nil``/``Cons``/``Concat``/``Repeat`` spines with shared tails and
  merge-made cycles, in any order and at any ``max_length``;
* offer exactly the signatures the reference walk collects, for every
  class of random e-graphs of affine chains with merge-made cycles,
  building each ``(class, depth)`` set once;
* return the reference's variants from ``determinize_all`` on every
  worklist list of a fast Table 1 subset;
* synthesize the same candidates and inference records as the reference
  pipeline on that subset;
* leave alone every class the determinizer's extractor walks: inference
  merges none of them, which is why skipping a walk cannot change a term
  (see the ``core/determinize.py`` docstring);
* reject, in loop inference, a list with an element class no affine
  e-node heads, and no other list;
* count the lists the suffix heuristics skip and the runs the partial-run
  search tries.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import determinize_oracle as oracle
from repro.benchsuite.suite import get_benchmark
from repro.cad.build import cons_list, fold_union
from repro.core.config import SynthesisConfig
from repro.core.determinize import MAX_SIGNATURE_DEPTH, Determinizer
from repro.core.function_inference import FunctionInference
from repro.core.lists import ListReadError, _SpineReader, fold_worklist, read_list_elements
from repro.core.loop_inference import LoopInference
from repro.core.pipeline import _default_rule_set, synthesize
from repro.csg.build import cube, sphere, translate
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.runner import Runner, RunnerLimits
from repro.lang.canon import canonical_term_text
from repro.lang.normal import AFFINE_OPS
from repro.lang.term import Term
from repro.solvers.closed_form import FunctionSolver

#: Small Table 1 models; med-slide and card-org are the quick ones whose
#: lists share a non-empty signature.
_FAST_SUBSET = ["sander", "soldering", "hc-bits", "relay-box", "compose", "med-slide", "card-org"]


# -- random spine e-graphs ------------------------------------------------------

_ELEMENTS = ("Cube", "Sphere", "Cylinder", "(Translate 1 0 0 Cube)")
_COUNTS = (0, 1, 2, 3, 2.5)

#: One construction step: (kind, a, b), the operands taken modulo what exists.
_STEPS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 63), st.integers(0, 63)),
    min_size=1,
    max_size=40,
)


def _spine_graph(steps, rebuild):
    """An e-graph of spines: ``Cons`` onto existing lists (shared tails),
    ``Concat``, ``Repeat``, folds over lists, and merges of two lists, which
    close cycles whenever one is reachable from the other."""
    egraph = EGraph()
    elements = [egraph.add_term(Term.parse(text)) for text in _ELEMENTS]
    functions = [egraph.add_enode(ENode(op)) for op in ("Union", "Inter", "Diff")]
    empty = egraph.add_enode(ENode("Empty"))
    lists = [egraph.add_enode(ENode("Nil"))]
    for kind, a, b in steps:
        if kind == 0:
            head, tail = elements[a % len(elements)], lists[b % len(lists)]
            lists.append(egraph.add_enode(ENode("Cons", (head, tail))))
        elif kind == 1:
            left, right = lists[a % len(lists)], lists[b % len(lists)]
            lists.append(egraph.add_enode(ENode("Concat", (left, right))))
        elif kind == 2:
            count = egraph.add_term(Term.num(_COUNTS[b % len(_COUNTS)]))
            lists.append(egraph.add_enode(ENode("Repeat", (elements[a % len(elements)], count))))
        elif kind == 3:
            function = functions[b % len(functions)]
            egraph.add_enode(ENode("Fold", (function, empty, lists[a % len(lists)])))
        else:
            egraph.merge(lists[a % len(lists)], lists[b % len(lists)])
    if rebuild:
        egraph.rebuild()
    return egraph, lists + elements


def _reference_read(egraph, class_id, max_length):
    try:
        return oracle.read_list_elements(egraph, class_id, max_length=max_length)
    except ListReadError:
        return None


@settings(max_examples=300, deadline=None)
@given(_STEPS, st.booleans(), st.integers(0, 3))
def test_fold_worklist_equals_the_per_list_reader(steps, rebuild, min_length):
    egraph, _classes = _spine_graph(steps, rebuild)
    assert fold_worklist(egraph, min_length) == oracle.fold_worklist(egraph, min_length)


@settings(max_examples=300, deadline=None)
@given(_STEPS, st.booleans(), st.integers(0, 6), st.randoms(use_true_random=False))
def test_one_reader_answers_every_class_as_a_fresh_read(steps, rebuild, max_length, random):
    egraph, classes = _spine_graph(steps, rebuild)
    random.shuffle(classes)
    for limit in (max_length, 100_000):
        reader = _SpineReader(egraph, limit)
        for class_id in classes:
            assert reader.elements(class_id) == _reference_read(egraph, class_id, limit)


def test_read_list_elements_raises_like_the_reference():
    egraph = EGraph()
    root = egraph.add_term(cube())
    with pytest.raises(ListReadError):
        read_list_elements(egraph, root)
    with pytest.raises(ListReadError):
        oracle.read_list_elements(egraph, root)


def test_a_chain_of_1000_reads_each_spine_class_once():
    """Every suffix of a 1,000-element chain is a fold: the per-list reader
    reads 500,500 spine classes, the shared one each of the 1,001 once."""
    egraph = EGraph()
    union, empty = egraph.add_enode(ENode("Union")), egraph.add_enode(ENode("Empty"))
    spine = egraph.add_enode(ENode("Nil"))
    elements = []
    for index in range(1000):
        element = egraph.add_term(translate(index, 0, 0, cube()))
        elements.append(element)
        spine = egraph.add_enode(ENode("Cons", (element, spine)))
        egraph.add_enode(ENode("Fold", (union, empty, spine)))
    work = Counter()
    worklist = fold_worklist(egraph, 2, work)
    assert work == {"spine_reads": 1001, "spine_reuses": 999}
    assert [len(classes) for _list, classes in worklist] == list(range(1000, 1, -1))
    assert worklist[0][1] == elements[::-1]
    assert worklist[-1][1] == elements[1::-1]


# -- random affine e-graphs ------------------------------------------------------


def _affine_graph(steps, rebuild):
    """An e-graph of affine e-nodes over primitives and over each other, and
    merges of two solid classes, which close cycles whenever one is
    reachable from the other."""
    egraph = EGraph()
    solids = [egraph.add_term(Term.parse(text)) for text in ("Cube", "Sphere")]
    zero = egraph.add_term(Term.num(0))
    for kind, a, b in steps:
        if kind < len(AFFINE_OPS):
            x = egraph.add_term(Term.num(b % 3))
            child = solids[a % len(solids)]
            solids.append(egraph.add_enode(ENode(AFFINE_OPS[kind], (x, zero, zero, child))))
        else:
            egraph.merge(solids[a % len(solids)], solids[b % len(solids)])
    if rebuild:
        egraph.rebuild()
    return egraph, solids


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63), st.integers(0, 63)), max_size=30),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_signatures_are_the_reference_walk_built_once(steps, rebuild, random):
    egraph, solids = _affine_graph(steps, rebuild)
    reference = oracle.UngatedDeterminizer(egraph)
    determinizer = Determinizer(egraph)
    queries = [(c, d) for c in solids for d in range(MAX_SIGNATURE_DEPTH + 1)] * 2
    random.shuffle(queries)
    for class_id, depth in queries:
        walked = reference._candidate_signatures(class_id)
        assert determinizer.signatures(class_id, depth) == tuple(
            s for s in walked if len(s) <= depth
        )
    # Every set built is still in the memo: none was built twice.
    assert determinizer.materialize_memo_drops == 0
    assert determinizer.work["signature_reads"] == len(determinizer._signatures)


# -- the gate on Table 1 lists ------------------------------------------------------


def _saturated(name):
    benchmark = get_benchmark(name)
    config = SynthesisConfig(cost_function=benchmark.cost_function)
    egraph = EGraph()
    egraph.add_term(benchmark.build())
    limits = RunnerLimits(
        max_iterations=config.rewrite_iterations,
        max_enodes=config.max_enodes,
        max_seconds=config.max_seconds,
    )
    Runner(_default_rule_set(tuple(config.rule_categories)), limits).run(egraph)
    return egraph


def test_gated_determinize_all_returns_the_reference_variants():
    shares_a_signature = set()
    for name in _FAST_SUBSET:
        egraph = _saturated(name)
        worklist = fold_worklist(egraph, min_length=2)
        assert worklist == oracle.fold_worklist(egraph, min_length=2)
        for max_variants in (4, 3):
            gated, ungated = Determinizer(egraph), oracle.UngatedDeterminizer(egraph)
            for _list_class, element_classes in worklist:
                variants = gated.determinize_all(element_classes, max_variants)
                assert variants == ungated.determinize_all(element_classes, max_variants)
                shares_a_signature.add(variants[0].signature != ())
            assert gated.materialize_calls <= ungated.materialize_calls
    # Some lists share a non-empty signature and others offer () alone: the
    # test compares more than () variants.
    assert shares_a_signature == {True, False}


def _fingerprint(result):
    candidates = [(c.rank, repr(c.cost), canonical_term_text(c.term)) for c in result.candidates]
    return candidates, [vars(record) for record in result.inference_records]


@pytest.mark.parametrize("name", _FAST_SUBSET)
def test_reference_pipeline_synthesizes_the_same_programs(name, monkeypatch):
    benchmark = get_benchmark(name)
    config = SynthesisConfig(cost_function=benchmark.cost_function)
    production = synthesize(benchmark.build(), config)
    oracle.reference_pipeline(monkeypatch)
    reference = synthesize(benchmark.build(), config)
    assert _fingerprint(production) == _fingerprint(reference)


class _RecordingDeterminizer(oracle.UngatedDeterminizer):
    """The reference determinizer, keeping the roots every inference merge joins."""

    made = []

    def __init__(self, egraph):
        super().__init__(egraph)
        self.merged = set()
        self.made.append(self)

    def merge_term(self, class_id, term):
        self.merged.update((self.egraph.find(class_id), self.egraph.find(self._add(term))))
        super().merge_term(class_id, term)


@pytest.mark.parametrize("name", _FAST_SUBSET)
def test_inference_merges_no_class_the_determinizer_walked(name, monkeypatch):
    """The reference walks a superset of what production walks; no merge
    touches any of it, so each walk reads the witnesses saturation left and
    returns the same term whenever it runs."""
    oracle.reference_pipeline(monkeypatch)
    monkeypatch.setattr("repro.core.pipeline.Determinizer", _RecordingDeterminizer)
    _RecordingDeterminizer.made.clear()
    benchmark = get_benchmark(name)
    synthesize(benchmark.build(), SynthesisConfig(cost_function=benchmark.cost_function))
    (determinizer,) = _RecordingDeterminizer.made
    walked = set(determinizer._extractor._terms)
    assert walked and determinizer.merged
    assert walked.isdisjoint(determinizer.merged)


# -- crafted lists -------------------------------------------------------------------


def _infer(elements, suffixes=()):
    """Run both passes on a folded list and on its suffixes from the indices
    ``suffixes`` (sharing its spine, as saturation leaves them): the
    determinizer, both passes and how many lists function inference
    determinized."""
    egraph = EGraph()
    for start in (0,) + tuple(suffixes):
        egraph.add_term(fold_union(cons_list(elements[start:])))
    config = SynthesisConfig()
    determinizer, solver = Determinizer(egraph), FunctionSolver(config.epsilon)
    function_inference = FunctionInference(config, determinizer, solver)
    function_inference.run()
    lists_before = determinizer.determinized_lists
    loop_inference = LoopInference(config, determinizer, solver)
    loop_inference.run()
    return determinizer, function_inference, loop_inference, lists_before


def test_loop_inference_rejects_a_list_with_a_non_affine_element():
    row = [translate(2 * index, 0, 0, cube()) for index in range(4)]
    determinizer, function_inference, loop_inference, lists_before = _infer(row + [sphere()])
    assert determinizer.work["gated_lists"] == 1
    assert determinizer.determinized_lists == lists_before
    assert loop_inference.records == []
    # Function inference still finds the run of four translated cubes.
    (record,) = function_inference.records
    assert (record.kind, record.loop_bounds) == ("mapi-partial", (4,))


def test_loop_inference_keeps_an_all_affine_list():
    grid = [translate(x, y, 0, cube()) for x in (0, 3) for y in (0, 5)]
    determinizer, _function_inference, loop_inference, lists_before = _infer(grid)
    assert determinizer.work["gated_lists"] == 0
    assert determinizer.determinized_lists == lists_before + 1
    (record,) = loop_inference.records
    assert (record.kind, record.loop_bounds) == ("nested-loop", (2, 2))


def test_loop_inference_needs_one_core_under_the_varying_layer():
    grid = [translate(x, y, 0, sphere() if (x, y) == (3, 0) else cube())
            for x in (0, 3) for y in (0, 5)]
    _determinizer, _function_inference, loop_inference, _lists = _infer(grid)
    assert loop_inference.records == []


def test_the_suffix_heuristics_count_what_they_skip():
    # A 4x3 grid: function inference solves runs of it and loop inference
    # its regular nest, so both skip the three suffixes of 9-11 elements.
    grid = [translate(3 * x, 5 * y, 0, cube()) for x in range(4) for y in range(3)]
    work = _infer(grid, suffixes=(1, 2, 3))[0].work
    assert (work["covered_lists"], work["regular_covered_lists"]) == (3, 3)
    assert work["partial_skips"] == 0
    # Spheres between cubes: no run has one core, so the list fails, and
    # its three suffixes skip the partial-run search.  The list's steps 1,
    # 3, 5, 7 differ, so that search tried its four two-element runs in
    # each of the list's two variants, (Translate) and ().
    alternating = [translate(i * i, 0, 0, cube() if i % 2 else sphere()) for i in range(5)]
    work = _infer(alternating, suffixes=(1, 2, 3))[0].work
    assert (work["partial_skips"], work["partial_runs"]) == (3, 8)
    assert work["covered_lists"] == work["regular_covered_lists"] == 0
