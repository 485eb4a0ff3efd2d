"""The lazy k-best extractor against the eager design it replaced.

``kbest_oracle`` keeps the eager streams: every child stream is created
and forced at rank 0 when its parent is expanded.  These tests run both
designs on the e-graph ``synthesize`` extracts from and diff what they
return — cost, term and order — under ``ast-size``, where the e-classes'
best-cost slots price rank 0, and under ``reward-loops``, where they
cannot.  A fast subset of Table 1 runs in the blocking lane, the other
models in the slow lane.

They also pin two properties the lazy design promises: the stored best
cost of every class reachable from a root is the oracle's rank-0 cost bit
for bit, and ``synthesize`` leaves no cyclic garbage behind.
"""

from __future__ import annotations

import gc

import pytest

from kbest_oracle import EagerTopKExtractor
from repro.benchsuite.suite import BENCHMARKS, get_benchmark
from repro.core import pipeline
from repro.core.config import SynthesisConfig
from repro.core.cost import get_cost_function
from repro.core.pipeline import synthesize
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import TopKExtractor, ast_size_cost
from repro.lang.term import Term

#: Small models, dice among them for its many cost ties.
_FAST_MODELS = ["sander", "soldering", "hc-bits", "relay-box", "dice"]
_SLOW_MODELS = [b.name for b in BENCHMARKS if b.name not in _FAST_MODELS]
_COSTS = ["ast-size", "reward-loops"]


def _extraction_graph(name, monkeypatch):
    """The e-graph and root class ``synthesize`` extracts from for one model."""
    captured = {}

    class Recording(TopKExtractor):
        def best_per_enode(self, class_id):
            captured["graph"] = (self.egraph, class_id)
            return super().best_per_enode(class_id)

    monkeypatch.setattr(pipeline, "TopKExtractor", Recording)
    synthesize(get_benchmark(name).build(), SynthesisConfig())
    return captured["graph"]


def _reachable(egraph, root):
    find = egraph.find
    seen, stack = {find(root)}, [find(root)]
    while stack:
        for node in egraph.flat_nodes(stack.pop()):
            for arg in node[1:]:
                arg = find(arg)
                if arg not in seen:
                    seen.add(arg)
                    stack.append(arg)
    return sorted(seen)


def _ranked(entries):
    return [(entry.cost, entry.term) for entry in entries]


def _assert_top_k_matches_oracle(name, cost_name, monkeypatch):
    egraph, root = _extraction_graph(name, monkeypatch)
    cost_function = get_cost_function(cost_name)
    lazy = TopKExtractor(egraph, cost_function, k=10)
    eager = EagerTopKExtractor(egraph, cost_function, k=10)
    assert _ranked(lazy.best_per_enode(root)) == _ranked(eager.best_per_enode(root))
    assert _ranked(lazy.extract_top_k(root)) == _ranked(eager.extract_top_k(root))


def _assert_rank0_matches_oracle(name, monkeypatch):
    egraph, root = _extraction_graph(name, monkeypatch)
    classes = _reachable(egraph, root)
    for cost_name in _COSTS:
        cost_function = get_cost_function(cost_name)
        lazy = TopKExtractor(egraph, cost_function, k=1)
        eager = EagerTopKExtractor(egraph, cost_function)
        for class_id in classes:
            expected = eager.rank0(class_id)
            assert expected is not None, (name, class_id)
            if cost_function is ast_size_cost:
                stored = egraph.eclass(class_id).cost
                assert stored.hex() == expected.cost.hex(), (name, class_id)
            best = lazy.best(class_id)
            assert (best.cost, best.term) == (expected.cost, expected.term), (
                name, cost_name, class_id,
            )


@pytest.mark.parametrize("cost_name", _COSTS)
@pytest.mark.parametrize("name", _FAST_MODELS)
def test_top_k_and_best_per_enode_match_the_eager_oracle(name, cost_name, monkeypatch):
    _assert_top_k_matches_oracle(name, cost_name, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("cost_name", _COSTS)
@pytest.mark.parametrize("name", _SLOW_MODELS)
def test_top_k_and_best_per_enode_match_the_eager_oracle_full_suite(name, cost_name, monkeypatch):
    _assert_top_k_matches_oracle(name, cost_name, monkeypatch)


@pytest.mark.parametrize("name", _FAST_MODELS)
def test_analysis_cost_is_the_oracle_rank0_of_every_reachable_class(name, monkeypatch):
    _assert_rank0_matches_oracle(name, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("name", _SLOW_MODELS)
def test_analysis_cost_is_the_oracle_rank0_of_every_reachable_class_full_suite(name, monkeypatch):
    _assert_rank0_matches_oracle(name, monkeypatch)


def test_a_child_in_the_same_scc_reads_rank0_from_its_banned_stream():
    # A = {a, (U B b)} and B = {(F A), (G (G (G c)))} form one SCC.  The
    # slot prices B at 2 through (F a), but a derivation of A may not
    # revisit A, so under A the cheapest B is (G (G (G c))), at 4.
    egraph = EGraph()
    a = egraph.add_term(Term("a"))
    b = egraph.add_enode(ENode("F", (a,)))
    egraph.merge(b, egraph.add_term(Term.parse("(G (G (G c)))")))
    egraph.merge(a, egraph.add_enode(ENode("U", (b, egraph.add_term(Term("b"))))))
    egraph.rebuild()
    assert egraph.eclass(b).cost == 2.0
    lazy = TopKExtractor(egraph, ast_size_cost, k=5)
    eager = EagerTopKExtractor(egraph, ast_size_cost, k=5)
    expected = [(1.0, Term("a")), (6.0, Term.parse("(U (G (G (G c))) b)"))]
    assert _ranked(eager.extract_top_k(a)) == expected
    assert _ranked(lazy.extract_top_k(a)) == expected


def test_extract_expands_fewer_classes_than_it_indexes(monkeypatch):
    egraph, root = _extraction_graph("gear", monkeypatch)
    extractor = TopKExtractor(egraph, ast_size_cost, k=5)
    extractor.best_per_enode(root)
    extractor.extract_top_k(root)
    counters = extractor.counters()
    assert counters["expanded"] <= counters["streams"]
    assert counters["expanded"] < counters["scc_classes"] == len(_reachable(egraph, root))


@pytest.mark.parametrize("name", ["sander", "gear", "rasp-pie"])
def test_synthesize_leaves_no_cyclic_garbage(name):
    model = get_benchmark(name).build()
    gc.collect()
    gc.disable()
    try:
        synthesize(model, SynthesisConfig())
        assert gc.collect() == 0
    finally:
        gc.enable()
