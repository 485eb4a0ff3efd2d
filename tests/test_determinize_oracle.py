"""The affine-head gate and the shared spine reader against the code they replaced.

``tests/determinize_oracle.py`` keeps the old paths: the per-list spine
reader, ``determinize_all`` without the gate, loop inference without the
gate and the eager full-list attempt.  Here production must

* read every spine exactly as the per-list reader does, on random e-graphs
  of ``Nil``/``Cons``/``Concat``/``Repeat`` spines with shared tails and
  merge-made cycles, in any order and at any ``max_length``;
* return the reference's variants from ``determinize_all`` on every
  worklist list of a fast Table 1 subset;
* synthesize the same candidates and inference records as the reference
  pipeline on that subset;
* leave alone every class the determinizer's extractor walks: inference
  merges none of them, which is why skipping a walk cannot change a term
  (see the ``core/determinize.py`` docstring);
* reject, in loop inference, a list with an element class no affine
  e-node heads, and no other list.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import determinize_oracle as oracle
from repro.benchsuite.suite import get_benchmark
from repro.cad.build import cons_list, fold_union
from repro.core.config import SynthesisConfig
from repro.core.determinize import Determinizer
from repro.core.function_inference import FunctionInference
from repro.core.lists import ListReadError, _SpineReader, fold_worklist, read_list_elements
from repro.core.loop_inference import LoopInference
from repro.core.pipeline import _default_rule_set, synthesize
from repro.csg.build import cube, sphere, translate
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.runner import Runner, RunnerLimits
from repro.lang.canon import canonical_term_text
from repro.lang.term import Term
from repro.solvers.closed_form import FunctionSolver

#: Small Table 1 models; med-slide and card-org are the quick ones whose
#: lists share an affine head that the gate still rules some signatures out of.
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
    skipped = Counter()
    for name in _FAST_SUBSET:
        egraph = _saturated(name)
        worklist = fold_worklist(egraph, min_length=2)
        assert worklist == oracle.fold_worklist(egraph, min_length=2)
        for max_variants in (4, 3):
            gated, ungated = Determinizer(egraph), oracle.UngatedDeterminizer(egraph)
            for _list_class, element_classes in worklist:
                assert gated.determinize_all(element_classes, max_variants) == (
                    ungated.determinize_all(element_classes, max_variants)
                )
            assert gated.materialize_calls <= ungated.materialize_calls
            skipped.update(gated.work)
    # Both shortcuts were taken: the test compares more than () variants.
    assert skipped["skipped_signatures"] > 0 and skipped["unshared_lists"] > 0


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


def _infer(elements):
    """Run both passes on one folded list: the determinizer, both passes and
    how many lists function inference determinized."""
    egraph = EGraph()
    egraph.add_term(fold_union(cons_list(elements)))
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
