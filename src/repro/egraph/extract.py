"""Extraction of (top-k) best terms from an e-graph.

After saturation, every e-class represents many equivalent programs; a cost
function picks which ones to return.  The paper's default cost is the number
of AST nodes; the alternative ``reward-loops`` cost discounts loop
combinators (Section 6.1, "Cost function robustness").  Because there is no
single right parameterization, Szalinski returns the top-k programs
(Section 5.1) so the user can choose.

Two extractors read the e-graph:

* :class:`Extractor` — single-best extraction under AST size, the queries
  the determinizer makes inside the arithmetic components.  Every e-class
  keeps its best AST-size cost and a witness e-node, maintained through
  ``add_enode``/``merge``/``rebuild`` (see :mod:`repro.egraph.egraph`), so
  a query is an O(answer) walk over the witnesses; there is no post-hoc
  cost fixpoint.  (The worklist fixpoint it replaced is the test oracle
  ``tests/saturation_oracle.py``.)
* :class:`TopKExtractor` — **lazy k-best candidate streams** per e-class
  (Eppstein-style, as in Huang & Chiang's lazy k-best parsing), generalized
  to cyclic e-graphs: only *realizable* derivations are enumerated, in cost
  order.  "Realizable" here means **acyclic**: a derivation may not revisit
  an e-class on any root-to-leaf path — the standard e-graph extraction
  semantics, under which the derivation space is finite and best costs are
  well-defined.  (A discount cost over an equivalence cycle can denote
  finite unfoldings of unboundedly decreasing cost with an unattained
  infimum — ``Mapi(Mapi(...))`` towers under ``reward-loops`` — so
  *cheapest represented term* is not even well-defined there; cheapest
  acyclic derivation is, and is what every query below returns under a
  monotone cost.)  The path restriction is enforced *by construction*:
  revisits can only happen inside a strongly connected component of the
  class graph, so each candidate stream carries the set of same-SCC
  ancestor classes it must avoid and descends into children with that set
  extended.  Outside non-trivial SCCs the set is always empty and streams
  are shared context-free.  This makes equivalence cycles, direct or
  indirect, safe under either cost instead of detected-and-rejected — an
  unrealizable cyclic "best" simply never appears in any stream, so no
  well-foundedness guards or cycle errors are needed.

A top-k query touches only the classes its answer needs:

* **The best-cost slot prices rank 0.**  A stream's heap entry is an
  e-node with one rank per child.  Under ``ast-size`` on a quiescent
  e-graph (no merge or cost propagation pending), a child at rank 0 is
  priced by its class's stored best cost, and its stream is created only
  when a popped entry needs the child's term or a rank above 0.  Two kinds
  of child still read rank 0 from their stream: one whose stream carries a
  non-empty banned set (it shares a non-trivial SCC with a blocked class),
  and every child under ``reward-loops``, which the slot does not price.
  This is sound because the stored cost is the cheapest acyclic
  derivation's when every e-node costs more than each of its children, as
  under ``ast-size``: a derivation that revisits a class is then dearer
  than the one that skips the loop.
* **Successors are pushed just before the next pop.**  Popping an entry
  queues its rank successors; they enter the heap when the stream is next
  asked for more, not at once, so reading rank 0 never forces rank 1 of
  the children.  Only a stream's own queries push into its heap, and the
  stream graph is acyclic, so a deferred push keeps its place among that
  stream's entries: the heap order ``(cost, seq)`` and so every emission
  are what immediate pushes give.
* **An explicit work stack drives the streams.**  A stream that needs a
  child's entry first returns that need; :meth:`TopKExtractor._get`
  pushes the child onto its stack and resumes the stream when the entry
  exists.  No query recurses per list element, and streams hold no pointer
  to the extractor, so an extractor is freed by reference counting alone.

Each stream's emissions are sorted when the cost function is monotone in
its child costs (nondecreasing in each argument), as ``ast-size`` is.  It
need *not* satisfy ``f(...) >= max(child costs)``: a discounted ``Mapi``
cheaper than its body is fine.  ``reward-loops`` is not monotone: it
discounts a ``Fold`` only when its first child costs more than 1.5 (a
``Fun``, not a bare ``Union``), so a dearer first child can make a cheaper
``Fold``.  A successor enters the heap only after its predecessor pops, so
under ``reward-loops`` a stream can emit out of cost order and a top-k
query can miss a cheaper term: for ``(Fold Union Empty (Cons Cube (Cons
Cube (Cons Cube Nil))))`` with ``Union`` merged with ``(G a)``, k=1 returns
the cost-10 term although ``(Fold (G a) Empty ...)`` costs 3.5, and k=2
returns the two in that order.  The pipeline sorts the root's entries by
cost; the missed terms are a known defect.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.lang.term import Term

#: A cost function maps (operator, children costs) to a cost.
CostFunction = Callable[[object, Sequence[float]], float]


def ast_size_cost(op: object, child_costs: Sequence[float]) -> float:
    """The paper's default cost: one per AST node."""
    return 1.0 + sum(child_costs)


class ExtractionError(RuntimeError):
    """Raised when no realizable term exists for the requested e-class."""


@dataclass(frozen=True, slots=True)
class RankedTerm:
    """A term together with its cost (and its rank after sorting)."""

    cost: float
    term: Term


# ---------------------------------------------------------------------------
# Single-best extraction (the witness walk)
# ---------------------------------------------------------------------------


class Extractor:
    """Single-best extraction under AST size: the walk over the witnesses.

    A class's stored cost exceeds the stored cost of each of its witness's
    children (it was one plus their sum when the witness was chosen, and
    stored costs only fall), so the walk reaches every child at a strictly
    smaller cost and never revisits a class, even while merges wait for a
    rebuild.  A term is memoized per canonical class, so a class keeps the
    term of its first walk.
    """

    def __init__(self, egraph: EGraph):
        self.egraph = egraph
        self._terms: Dict[int, Term] = {}

    def cost_of(self, class_id: int) -> float:
        """``class_id``'s stored best cost: the size of the term :meth:`extract`
        returns when no merge is pending."""
        return self.egraph.eclass(class_id).cost

    def extract(self, class_id: int) -> Term:
        """The term of ``class_id``'s witness derivation.

        Depth first, children left to right, from an explicit stack: each
        frame is a class on the current path, its witness and the terms of
        its children finished so far.
        """
        egraph = self.egraph
        find = egraph.find
        op = egraph.symbols.op
        classes = egraph._classes
        memo = self._terms
        enter: Optional[int] = find(class_id)
        if enter in memo:
            return memo[enter]
        frames: List[Tuple[int, Tuple[int, ...], List[Term]]] = []
        while True:
            if enter is not None:
                frames.append((enter, classes[enter].witness, []))
                enter = None
            current, witness, terms = frames[-1]
            while len(terms) < len(witness) - 1:
                child = find(witness[len(terms) + 1])
                memoized = memo.get(child)
                if memoized is None:
                    enter = child
                    break
                terms.append(memoized)
            if enter is not None:
                continue
            term = memo[current] = Term(op(witness[0]), tuple(terms))
            frames.pop()
            if not frames:
                return term
            frames[-1][2].append(term)


# ---------------------------------------------------------------------------
# Lazy k-best candidate heaps (Eppstein-style, cycle-safe)
# ---------------------------------------------------------------------------

#: What a stream waits for: a child stream and the rank it must reach.
_Need = Tuple["_Stream", int]


class _Stream:
    """Derivations of one e-class in nondecreasing cost order, lazily.

    ``banned`` is the set of same-SCC ancestor classes this stream's
    derivations must avoid (always empty outside non-trivial SCCs).  The
    frontier heap holds candidates ``(cost, seq, enode index, child
    ranks)``; popping a candidate emits its term and queues its rank
    successors — the classic lazy k-best step, except that candidates whose
    e-node descends into a banned class never enter the heap, so every
    emission is realizable and acyclic by construction.

    A stream never calls another stream: :meth:`advance` returns the child
    entry it lacks, and :meth:`TopKExtractor._get` produces that entry and
    resumes it (see the module docstring).
    """

    __slots__ = ("class_id", "banned", "entries", "_blocked", "_nodes", "_heap",
                 "_pushed", "_queued", "_seen_terms", "_initialized")

    def __init__(self, class_id: int, banned: frozenset):
        self.class_id = class_id
        self.banned = banned
        #: Emitted derivations: distinct terms, nondecreasing cost.
        self.entries: List[RankedTerm] = []
        self._blocked: frozenset = frozenset()
        #: ``(e-node, child streams, rank-0 prices)`` per usable e-node.  A
        #: child stream is None until first needed; a price is None when
        #: rank 0 must be read from the child's stream.
        self._nodes: List[Tuple[ENode, List[Optional["_Stream"]], List[Optional[float]]]] = []
        self._heap: List[Tuple[float, int, int, Tuple[int, ...]]] = []
        self._pushed: Set[Tuple[int, Tuple[int, ...]]] = set()
        #: Rank tuples waiting to enter the heap, the next one last.
        self._queued: List[Tuple[int, Tuple[int, ...]]] = []
        self._seen_terms: Set[Term] = set()
        self._initialized = False

    def exhausted(self) -> bool:
        """True once the stream has emitted everything it ever will."""
        return self._initialized and not self._heap and not self._queued

    def _init(self, extractor: "TopKExtractor") -> None:
        self._initialized = True
        extractor.expanded += 1
        egraph = extractor.egraph
        find = egraph.find
        priced = extractor.priced
        # A child shares a blocked class's SCC exactly when it is in this
        # class's own cycle set; its stream then carries a banned set.
        cycle = extractor._cycle_set(self.class_id) if priced else frozenset()
        blocked = self._blocked = self.banned | {self.class_id}
        seen_nodes: Set[ENode] = set()
        for enode in egraph.nodes(self.class_id):
            enode = enode.canonicalize(find)
            if enode in seen_nodes:
                continue
            seen_nodes.add(enode)
            if any(arg in blocked for arg in enode.args):
                continue
            prices: List[Optional[float]] = [None] * len(enode.args)
            if priced:
                for position, arg in enumerate(enode.args):
                    if arg not in cycle:
                        prices[position] = egraph.eclass(arg).cost
            self._nodes.append((enode, [None] * len(enode.args), prices))
        self._queued = [
            (index, (0,) * len(self._nodes[index][0].args))
            for index in reversed(range(len(self._nodes)))
        ]

    def _child(self, extractor: "TopKExtractor", index: int, position: int) -> "_Stream":
        """The stream of e-node ``index``'s child at ``position``, created on first use."""
        enode, children, _ = self._nodes[index]
        child = children[position]
        if child is None:
            child = children[position] = extractor._stream(enode.args[position], self._blocked)
        return child

    def _push(self, extractor: "TopKExtractor", index: int, ranks: Tuple[int, ...]) -> Optional[_Need]:
        """Push one rank tuple, or return the child entry it waits for.

        A tuple pushed before, or one whose child stream ends below its
        rank, is dropped.
        """
        key = (index, ranks)
        if key in self._pushed:
            return None
        enode, _, prices = self._nodes[index]
        child_costs = []
        for position, rank in enumerate(ranks):
            price = prices[position]
            if rank == 0 and price is not None:
                child_costs.append(price)
                continue
            child = self._child(extractor, index, position)
            if rank < len(child.entries):
                child_costs.append(child.entries[rank].cost)
            elif child.exhausted():
                self._pushed.add(key)
                return None
            else:
                return child, rank
        self._pushed.add(key)
        cost = extractor.cost_function(enode.op, child_costs)
        heapq.heappush(self._heap, (cost, next(extractor._seq), index, ranks))
        return None

    def advance(self, extractor: "TopKExtractor", rank: int) -> Optional[_Need]:
        """Work toward ``entries[rank]``; return the child entry needed first.

        Returns None once the entry exists or the stream is exhausted below
        it.
        """
        if not self._initialized:
            self._init(extractor)
        entries = self.entries
        heap = self._heap
        queued = self._queued
        while len(entries) <= rank:
            while queued:
                need = self._push(extractor, *queued[-1])
                if need is not None:
                    return need
                queued.pop()
            if not heap:
                return None
            cost, _, index, ranks = heap[0]
            terms = []
            for position, child_rank in enumerate(ranks):
                child = self._child(extractor, index, position)
                if child_rank >= len(child.entries):
                    if child.exhausted():
                        raise ExtractionError(
                            f"e-class {child.class_id} has a best cost "
                            "but no realizable term"
                        )
                    return child, child_rank
                terms.append(child.entries[child_rank].term)
            heapq.heappop(heap)
            extractor.pops += 1
            # Successors always expand the frontier, even when the popped
            # term turns out to be a duplicate; they enter the heap just
            # before the next pop.
            for position in reversed(range(len(ranks))):
                bumped = list(ranks)
                bumped[position] += 1
                queued.append((index, tuple(bumped)))
            term = Term(self._nodes[index][0].op, tuple(terms))
            if term not in self._seen_terms:
                self._seen_terms.add(term)
                entries.append(RankedTerm(cost, term))
        return None


class TopKExtractor:
    """Extraction of the k cheapest distinct realizable terms per e-class.

    The extractor holds the lazy stream machinery for one (e-graph, cost
    function) pair (see the module docstring): the stream registry, the SCC
    index and the work stack.  Nothing is computed until a query forces
    it, and a query for class ``c`` expands only the classes its answer
    needs; every class reachable from ``c`` is still visited once by the
    SCC index.

    Streams are memoized on ``(class id, banned set)`` after intersecting
    the inherited banned set with the class's *cycle set* — the members of
    its strongly connected component when that SCC is non-trivial, else the
    empty set.  A banned ancestor outside the class's SCC can never be
    reached again (the SCC condensation is acyclic), so dropping it is
    sound and collapses almost every request onto the context-free stream.

    ``priced`` says whether the best-cost slots price rank 0: under
    ``ast-size`` on a quiescent e-graph.  Otherwise every rank is read from
    the streams.
    """

    def __init__(
        self,
        egraph: EGraph,
        cost_function: CostFunction = ast_size_cost,
        k: int = 5,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.egraph = egraph
        self.cost_function = cost_function
        self.k = k
        self.priced = cost_function is ast_size_cost and egraph.quiescent
        self._seq = itertools.count()  # heap tiebreaker: deterministic FIFO
        self._streams: Dict[Tuple[int, frozenset], _Stream] = {}
        self._cycle_sets: Dict[int, frozenset] = {}
        self._scc_index: Dict[int, int] = {}
        self._scc_low: Dict[int, int] = {}
        #: Work counters: streams whose ``_init`` ran, and heap pops.
        self.expanded = 0
        self.pops = 0

    # -- queries -----------------------------------------------------------------

    def extract_top_k(self, class_id: int) -> List[RankedTerm]:
        """The first k distinct realizable terms of ``class_id``'s stream.

        Under a monotone cost function they are the k cheapest, best first
        (see the module docstring).  Fewer than k entries come back when
        the class offers fewer distinct realizable terms (e.g. every other
        candidate descends into an equivalence cycle).
        """
        stream = self._stream(class_id)
        entries: List[RankedTerm] = []
        for rank in range(self.k):
            entry = self._get(stream, rank)
            if entry is None:
                break
            entries.append(entry)
        if not entries:
            raise ExtractionError(f"no extractable term for e-class {class_id}")
        return entries

    def best(self, class_id: int) -> RankedTerm:
        """The single cheapest realizable entry for ``class_id``."""
        return self.extract_top_k(class_id)[0]

    def counters(self) -> Dict[str, int]:
        """The work the queries so far did (the ``extract`` span's counters).

        ``streams`` were created, ``expanded`` of them read their class's
        e-nodes, ``pops`` entries left the heaps, and the SCC index visited
        ``scc_classes`` classes.
        """
        return {
            "streams": len(self._streams),
            "expanded": self.expanded,
            "pops": self.pops,
            "scc_classes": len(self._scc_index),
        }

    # -- streams -----------------------------------------------------------------

    def _stream(self, class_id: int, banned: frozenset = frozenset()) -> _Stream:
        class_id = self.egraph.find(class_id)
        banned = banned & self._cycle_set(class_id)
        key = (class_id, banned)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream(class_id, banned)
        return stream

    def _get(self, stream: _Stream, rank: int) -> Optional[RankedTerm]:
        """``stream``'s ``rank``-th distinct term, or None past its end.

        The top stream of the work stack advances until it has the entry
        or names a child entry it needs first; that child goes on the stack
        above it.  The stream graph is acyclic, so no stream is ever on the
        stack twice.
        """
        if rank >= len(stream.entries):
            stack: List[_Need] = [(stream, rank)]
            while stack:
                top, wanted = stack[-1]
                need = top.advance(self, wanted)
                if need is None:
                    stack.pop()
                else:
                    stack.append(need)
        return stream.entries[rank] if rank < len(stream.entries) else None

    # -- SCC index --------------------------------------------------------------

    def _cycle_set(self, class_id: int) -> frozenset:
        """The members of ``class_id``'s SCC if it is non-trivial, else empty."""
        cached = self._cycle_sets.get(class_id)
        if cached is not None:
            return cached
        self._run_tarjan(class_id)
        return self._cycle_sets[class_id]

    def _child_classes(self, class_id: int) -> Set[int]:
        find = self.egraph.find
        return {find(arg) for node in self.egraph.flat_nodes(class_id) for arg in node[1:]}

    def _run_tarjan(self, start: int) -> None:
        """Iterative Tarjan from ``start``; finished classes are skipped.

        Incremental restarts are sound: any cycle through an already
        finished class is fully contained in the subgraph that earlier run
        explored, so treating finished classes as closed cannot miss SCC
        members.
        """
        index = self._scc_index
        low = self._scc_low
        cycle_sets = self._cycle_sets
        # A visited class is on the Tarjan stack until its SCC is finished.
        tarjan_stack: List[int] = [start]
        index[start] = low[start] = len(index)
        children = self._child_classes(start)
        frames: List[Tuple[int, Set[int], Iterator[int]]] = [(start, children, iter(children))]
        while frames:
            node, children, pending = frames[-1]
            for child in pending:
                if child in cycle_sets:
                    continue  # finished, by this run or an earlier one
                if child not in index:
                    index[child] = low[child] = len(index)
                    tarjan_stack.append(child)
                    grandchildren = self._child_classes(child)
                    frames.append((child, grandchildren, iter(grandchildren)))
                    break
                if index[child] < low[node]:
                    low[node] = index[child]  # on the stack: same SCC
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    members: Set[int] = set()
                    while True:
                        member = tarjan_stack.pop()
                        members.add(member)
                        if member == node:
                            break
                    nontrivial = len(members) > 1 or node in children
                    cycle = frozenset(members) if nontrivial else frozenset()
                    for member in members:
                        cycle_sets[member] = cycle
