"""The eager k-best extractor, kept as a test oracle.

This is the k-best stream design ``repro.egraph.extract`` used before its
streams became lazy at rank 0: ``_Stream`` and ``_KBestEngine`` below are
that code, unchanged.  Each stream's ``_init`` creates a child stream for
every child of every e-node and forces its rank 0, so the first query
expands every class reachable from the root, by recursion.

``EagerTopKExtractor`` answers ``extract_top_k`` and ``best_per_enode``
with that engine, exactly as ``TopKExtractor`` did.  The tests run both
designs on the same e-graph and diff costs, terms and order.

``two_view_top_k`` is the top-k ``synthesize`` assembled from those two
queries before it made one: the root's cheapest term per e-node, then its
k cheapest terms, merged.  The one query must give the same top-k on every
root that has no e-node taking the root itself as an argument.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Set, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import CostFunction, ExtractionError, RankedTerm, ast_size_cost
from repro.lang.term import Term


class _Stream:
    """Derivations of one e-class in nondecreasing cost order, lazily.

    ``banned`` is the set of same-SCC ancestor classes this stream's
    derivations must avoid (always empty outside non-trivial SCCs).  The
    frontier heap holds candidates ``(cost, seq, enode index, child
    ranks)``; popping a candidate emits its term and pushes its rank
    successors — the classic lazy k-best step, except that candidates whose
    e-node descends into a banned class never enter the heap, so every
    emission is realizable and acyclic by construction.
    """

    __slots__ = ("engine", "class_id", "banned", "entries", "_nodes", "_heap",
                 "_pushed", "_seen_terms", "_initialized")

    def __init__(self, engine: "_KBestEngine", class_id: int, banned: frozenset):
        self.engine = engine
        self.class_id = class_id
        self.banned = banned
        #: Emitted derivations: distinct terms, nondecreasing cost.
        self.entries: List[RankedTerm] = []
        self._nodes: List[Tuple[ENode, List["_Stream"]]] = []
        self._heap: List[Tuple[float, int, int, Tuple[int, ...]]] = []
        self._pushed: Set[Tuple[int, Tuple[int, ...]]] = set()
        self._seen_terms: Set[Term] = set()
        self._initialized = False

    def _init(self) -> None:
        self._initialized = True
        egraph = self.engine.egraph
        find = egraph.find
        blocked = self.banned | {self.class_id}
        seen_nodes: Set[ENode] = set()
        for enode in egraph.nodes(self.class_id):
            enode = enode.canonicalize(find)
            if enode in seen_nodes:
                continue
            seen_nodes.add(enode)
            if any(find(arg) in blocked for arg in enode.args):
                continue
            children = [self.engine.stream(arg, blocked) for arg in enode.args]
            self._nodes.append((enode, children))
        for index in range(len(self._nodes)):
            self._push(index, (0,) * len(self._nodes[index][1]))

    def _push(self, index: int, ranks: Tuple[int, ...]) -> None:
        key = (index, ranks)
        if key in self._pushed:
            return
        self._pushed.add(key)
        enode, children = self._nodes[index]
        child_costs = []
        for child, rank in zip(children, ranks):
            entry = child.get(rank)
            if entry is None:
                return  # child stream exhausted below this rank
            child_costs.append(entry.cost)
        cost = self.engine.cost_function(enode.op, child_costs)
        heapq.heappush(self._heap, (cost, next(self.engine.seq), index, ranks))

    def get(self, rank: int) -> Optional[RankedTerm]:
        """The ``rank``-th cheapest distinct term, or None past the end."""
        if not self._initialized:
            self._init()
        while len(self.entries) <= rank and self._heap:
            cost, _, index, ranks = heapq.heappop(self._heap)
            enode, children = self._nodes[index]
            term = Term(
                enode.op,
                tuple(child.entries[r].term for child, r in zip(children, ranks)),
            )
            # Successors always expand the frontier, even when the popped
            # term turns out to be a duplicate.
            for position in range(len(ranks)):
                bumped = list(ranks)
                bumped[position] += 1
                self._push(index, tuple(bumped))
            if term not in self._seen_terms:
                self._seen_terms.add(term)
                self.entries.append(RankedTerm(cost, term))
        return self.entries[rank] if rank < len(self.entries) else None


class _KBestEngine:
    """Shared stream registry + SCC index for one (e-graph, cost fn) pair.

    Streams are memoized on ``(class id, banned set)`` after intersecting
    the inherited banned set with the class's *cycle set* — the members of
    its strongly connected component when that SCC is non-trivial, else the
    empty set.  A banned ancestor outside the class's SCC can never be
    reached again (the SCC condensation is acyclic), so dropping it is
    sound and collapses almost every request onto the context-free stream.
    """

    def __init__(self, egraph: EGraph, cost_function: CostFunction):
        self.egraph = egraph
        self.cost_function = cost_function
        self.seq = itertools.count()  # heap tiebreaker: deterministic FIFO
        self._streams: Dict[Tuple[int, frozenset], _Stream] = {}
        self._children: Dict[int, List[int]] = {}
        self._cycle_sets: Dict[int, frozenset] = {}
        self._scc_index: Dict[int, int] = {}
        self._scc_low: Dict[int, int] = {}
        self._scc_counter = 0

    def stream(self, class_id: int, banned: frozenset = frozenset()) -> _Stream:
        class_id = self.egraph.find(class_id)
        banned = banned & self._cycle_set(class_id)
        key = (class_id, banned)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream(self, class_id, banned)
        return stream

    # -- SCC index --------------------------------------------------------------

    def _child_classes(self, class_id: int) -> List[int]:
        children = self._children.get(class_id)
        if children is None:
            find = self.egraph.find
            children = self._children[class_id] = list(
                {find(arg) for node in self.egraph.flat_nodes(class_id) for arg in node[1:]}
            )
        return children

    def _cycle_set(self, class_id: int) -> frozenset:
        cached = self._cycle_sets.get(class_id)
        if cached is not None:
            return cached
        self._run_tarjan(class_id)
        return self._cycle_sets[class_id]

    def _run_tarjan(self, start: int) -> None:
        """Iterative Tarjan from ``start``; finished classes are skipped.

        Incremental restarts are sound: any cycle through an already
        finished class is fully contained in the subgraph that earlier run
        explored, so treating finished classes as closed cannot miss SCC
        members.
        """
        index = self._scc_index
        low = self._scc_low
        tarjan_stack: List[int] = []
        on_stack: Set[int] = set()

        index[start] = low[start] = self._scc_counter
        self._scc_counter += 1
        tarjan_stack.append(start)
        on_stack.add(start)
        frames: List[List] = [[start, self._child_classes(start), 0]]
        while frames:
            frame = frames[-1]
            node, children, position = frame
            advanced = False
            while position < len(children):
                child = children[position]
                position += 1
                frame[2] = position
                if child in self._cycle_sets and child not in on_stack:
                    continue  # finished by an earlier run
                if child not in index:
                    index[child] = low[child] = self._scc_counter
                    self._scc_counter += 1
                    tarjan_stack.append(child)
                    on_stack.add(child)
                    frames.append([child, self._child_classes(child), 0])
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                members: Set[int] = set()
                while True:
                    member = tarjan_stack.pop()
                    on_stack.discard(member)
                    members.add(member)
                    if member == node:
                        break
                nontrivial = len(members) > 1 or node in self._child_classes(node)
                cycle = frozenset(members) if nontrivial else frozenset()
                for member in members:
                    self._cycle_sets[member] = cycle


class EagerTopKExtractor:
    """``TopKExtractor``'s queries over the eager engine above."""

    def __init__(self, egraph: EGraph, cost_function: CostFunction = ast_size_cost, k: int = 5):
        self.egraph = egraph
        self.cost_function = cost_function
        self.k = k
        self._engine = _KBestEngine(egraph, cost_function)

    def rank0(self, class_id: int) -> Optional[RankedTerm]:
        """The cheapest realizable entry of ``class_id``'s context-free stream."""
        return self._engine.stream(class_id).get(0)

    def extract_top_k(self, class_id: int) -> List[RankedTerm]:
        """Up to k cheapest distinct realizable terms, best first.

        Fewer than k entries come back when the class offers fewer distinct
        realizable terms (e.g. every other candidate descends into an
        equivalence cycle).
        """
        stream = self._engine.stream(class_id)
        entries: List[RankedTerm] = []
        for rank in range(self.k):
            entry = stream.get(rank)
            if entry is None:
                break
            entries.append(entry)
        if not entries:
            raise ExtractionError(f"no extractable term for e-class {class_id}")
        return entries

    def best(self, class_id: int) -> RankedTerm:
        """The single cheapest realizable entry for ``class_id``."""
        return self.extract_top_k(class_id)[0]

    def best_per_enode(self, class_id: int) -> List[RankedTerm]:
        """The cheapest term rooted at each distinct e-node of ``class_id``.

        Whereas :meth:`extract_top_k` returns the k globally cheapest terms
        (which for CAD models are often near-identical affine reorderings of
        one another), this query returns one representative per alternative
        the e-class actually offers at its root — e.g. the original boolean
        chain, the affine-lifted variant, and the ``Fold``-based structured
        variant each contribute their own candidate.  ``two_view_top_k``
        combines both views.
        """
        class_id = self.egraph.find(class_id)
        find = self.egraph.find
        blocked = frozenset((class_id,))
        results: List[RankedTerm] = []
        seen: Set[Term] = set()
        seen_nodes: Set[ENode] = set()
        for enode in self.egraph.nodes(class_id):
            enode = enode.canonicalize(find)
            if enode in seen_nodes:
                continue
            seen_nodes.add(enode)
            child_entries = []
            missing = False
            for arg in enode.args:
                child = self._engine.stream(arg, blocked).get(0)
                if child is None:
                    missing = True
                    break
                child_entries.append(child)
            if missing:
                continue
            cost = self.cost_function(enode.op, [c.cost for c in child_entries])
            term = Term(enode.op, tuple(c.term for c in child_entries))
            if term in seen:
                continue
            seen.add(term)
            results.append(RankedTerm(cost, term))
        results.sort(key=lambda entry: entry.cost)
        return results


def two_view_top_k(
    egraph: EGraph, root: int, cost_function: CostFunction, k: int
) -> List[RankedTerm]:
    """The top-k of the two views: per root e-node, then the k cheapest.

    De-duplicated by term (the first occurrence kept), stably sorted by
    cost and cut at k.  Raises ``ExtractionError`` when ``extract_top_k``
    does.
    """
    extractor = EagerTopKExtractor(egraph, cost_function, k=k)
    combined: List[RankedTerm] = []
    seen: Set[Term] = set()
    for entry in extractor.best_per_enode(root) + extractor.extract_top_k(root):
        if entry.term not in seen:
            seen.add(entry.term)
            combined.append(entry)
    combined.sort(key=lambda entry: entry.cost)
    return combined[:k]
