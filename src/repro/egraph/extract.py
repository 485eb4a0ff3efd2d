"""Extraction of (top-k) best terms from an e-graph.

After saturation, every e-class represents many equivalent programs; a cost
function picks which ones to return.  The paper's default cost is the number
of AST nodes; the alternative ``reward-loops`` cost discounts loop
combinators (Section 6.1, "Cost function robustness").  Because there is no
single right parameterization, Szalinski returns the top-k programs
(Section 5.1) so the user can choose.

The stack has two layers:

* :class:`CostAnalysis` — an e-class :class:`~repro.egraph.egraph.Analysis`
  holding ``(best cost, witness e-node)`` per class, maintained
  *incrementally* through ``add_enode``/``merge``/``rebuild``.  The runner
  registers it, so post-saturation single-best extraction
  (:class:`Extractor`) is an O(answer) walk over the witnesses; there is no
  post-hoc cost fixpoint.  (The worklist fixpoint it replaced is the test
  oracle ``tests/saturation_oracle.py``.)
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
  acyclic derivation is, and is what every query below returns.)  The
  path restriction is enforced *by construction*: revisits can only
  happen inside a strongly connected component of the class graph, so each
  candidate stream carries the set of same-SCC ancestor classes it must
  avoid and descends into children with that set extended.  Outside
  non-trivial SCCs the set is always empty and streams are shared
  context-free.  This makes non-monotone costs (``reward-loops``) and
  indirect equivalence cycles *correct* instead of detected-and-rejected —
  an unrealizable cyclic "best" simply never appears in any stream, so no
  well-foundedness guards or cycle errors are needed.

A query touches only the classes its answer needs:

* **The analysis prices rank 0.**  A stream's heap entry is an e-node with
  one rank per child.  When the e-graph carries a quiescent
  :class:`CostAnalysis` for the extractor's own cost function, a child at
  rank 0 is priced by the analysis's best cost, and its stream is created
  only when a popped entry needs the child's term or a rank above 0.  Two
  kinds of child still read rank 0 from their stream: one whose stream
  carries a non-empty banned set (it shares a non-trivial SCC with a
  blocked class), and every child when no matching analysis is registered
  (``reward-loops`` in the pipeline).  This is sound only where the
  analysis's least fixpoint equals the cheapest acyclic derivation, which
  holds when every e-node costs more than each of its children
  (``ast-size``): a derivation that revisits a class is then dearer than
  the one that skips the loop.  Do not register a :class:`CostAnalysis`
  for a cost function that can price a node at or below a child.
* **Successors are pushed just before the next pop.**  Popping an entry
  queues its rank successors; they enter the heap when the stream is next
  asked for more, not at once, so reading rank 0 never forces rank 1 of
  the children.  Only a stream's own queries push into its heap, and the
  stream graph is acyclic, so a deferred push keeps its place among that
  stream's entries: the heap order ``(cost, seq)`` and so every emission
  are what immediate pushes give.
* **An explicit work stack drives the streams.**  A stream that needs a
  child's entry first returns that need; :meth:`_KBestEngine.get` pushes
  the child onto its stack and resumes the stream when the entry exists.
  No query recurses per list element, and streams hold no pointer to the
  engine, so an extractor is freed by reference counting alone.

Cost functions must be monotone in their child costs (nondecreasing in each
argument — both bundled functions are strictly increasing), which is what
keeps each stream's emissions sorted.  They need *not* satisfy
``f(...) >= max(child costs)``: a discounted parent cheaper than its child
is exactly the ``reward-loops`` case the lazy heaps exist for.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import Analysis, EGraph, ENode
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
# The cost analysis (incremental best cost + witness per e-class)
# ---------------------------------------------------------------------------


class CostAnalysis(Analysis):
    """Per-class ``(best cost, witness e-node)`` under a cost function.

    ``make`` prices an e-node from its children's best costs; ``merge`` keeps
    the cheaper side (ties keep the first argument, which is deterministic
    for a given run).  Registered on an e-graph — typically by the runner,
    so it rides along during saturation — it makes every best cost a
    constant-time read; :class:`Extractor` and :class:`TopKExtractor` pick
    it up automatically when its cost function matches.

    The analysis is a pure least-fixpoint: on an equivalence cycle that
    undercuts every realizable term (possible only when a node can be
    cheaper than its child, e.g. ``reward-loops``), the stored cost is a
    *lower bound* whose witness walk revisits a class.  Consumers detect
    that and fall back to the k-best enumeration, which is
    correct-by-construction (see the module docstring).
    """

    def __init__(self, cost_function: CostFunction = ast_size_cost, key: Optional[str] = None):
        self.cost_function = cost_function
        if key is None:
            name = getattr(cost_function, "__name__", hex(id(cost_function)))
            key = f"cost:{name}"
        self.key = key

    def make(self, egraph: EGraph, enode: ENode) -> Optional[Tuple[float, ENode]]:
        child_costs: List[float] = []
        for arg in enode.args:
            data = egraph.analysis_data(arg, self.key)
            if data is None:
                return None
            child_costs.append(data[0])
        return (self.cost_function(enode.op, child_costs), enode)

    def merge(self, a: Tuple[float, ENode], b: Tuple[float, ENode]) -> Tuple[float, ENode]:
        return a if a[0] <= b[0] else b


def matching_analysis(egraph: EGraph, cost_function: CostFunction) -> Optional[CostAnalysis]:
    """The registered :class:`CostAnalysis` for ``cost_function``, or None.

    Reuse requires the same cost function *and* a quiescent graph — with
    merges or analysis propagation still pending the stored data may be
    stale, so a mid-rebuild caller gets None.
    """
    if egraph._pending or egraph._analysis_pending:
        return None
    for analysis in egraph.analyses:
        if isinstance(analysis, CostAnalysis) and analysis.cost_function is cost_function:
            return analysis
    return None


# ---------------------------------------------------------------------------
# Single-best extraction (analysis view, with a k-best fallback)
# ---------------------------------------------------------------------------


class _CyclicWitness(Exception):
    """Internal: the analysis witness walk revisited a class."""


class Extractor:
    """Single-best extraction: the cheapest acyclic derivation of a class.

    When the e-graph carries a registered, quiescent :class:`CostAnalysis`
    for the *same* cost function (the runner registers the ast-size one),
    extraction is an O(answer) walk over its witnesses.  When the best
    witness derivation revisits a class (non-monotone cost + equivalence
    cycle), or no matching analysis is registered, the query is answered by
    rank 0 of the lazy k-best enumeration instead — the cheapest
    *realizable* term, with no error path for cycles.
    """

    def __init__(self, egraph: EGraph, cost_function: CostFunction = ast_size_cost):
        self.egraph = egraph
        self.cost_function = cost_function
        self._analysis = matching_analysis(egraph, cost_function)
        self._term_memo: Dict[int, Term] = {}
        self._resolved: Dict[int, RankedTerm] = {}
        self._kbest: Optional[_KBestEngine] = None

    def _best_entry(self, class_id: int) -> Optional[Tuple[float, ENode]]:
        """The analysis's (least-fixpoint cost, witness) pair for a canonical id.

        None when no matching analysis is registered, or it has no data for
        the class.
        """
        if self._analysis is None:
            return None
        return self.egraph.analysis_data(class_id, self._analysis.key)

    # -- queries ----------------------------------------------------------------

    def cost_of(self, class_id: int) -> float:
        """The cost of ``class_id``'s cheapest acyclic derivation.

        Not a lower bound over every *represented* term: a discount cost
        over an equivalence cycle denotes cyclic-derivation unfoldings that
        can undercut this value (see the module docstring).
        """
        return self._resolve(class_id).cost

    def extract(self, class_id: int) -> Term:
        """The term of ``class_id``'s cheapest acyclic derivation."""
        return self._resolve(class_id).term

    def _resolve(self, class_id: int) -> RankedTerm:
        class_id = self.egraph.find(class_id)
        resolved = self._resolved.get(class_id)
        if resolved is not None:
            return resolved
        entry = self._best_entry(class_id)
        if entry is not None:
            try:
                resolved = RankedTerm(entry[0], self._walk(class_id))
            except _CyclicWitness:
                pass
        if resolved is None:
            # No analysis prices the class, or its best witness is an
            # unrealizable cycle: enumerate realizable derivations instead.
            # (A cycle is reached only by non-monotone costs over
            # equivalence cycles, and there the analysis cannot price rank
            # 0, so the engine gets none.)
            if self._kbest is None:
                self._kbest = _KBestEngine(self.egraph, self.cost_function, None)
            resolved = self._kbest.get(self._kbest.stream(class_id), 0)
            if resolved is None:
                raise ExtractionError(f"no extractable term for e-class {class_id}")
        self._resolved[class_id] = resolved
        return resolved

    def _walk(self, class_id: int) -> Term:
        """Materialize the witness derivation, failing on a class revisit.

        Depth first, children left to right, from an explicit stack: each
        frame is a class on the current path, its witness e-node and the
        terms of its children finished so far.
        """
        find = self.egraph.find
        memo = self._term_memo
        enter: Optional[int] = find(class_id)
        if enter in memo:
            return memo[enter]
        path: Set[int] = set()
        frames: List[Tuple[int, ENode, List[Term]]] = []
        while True:
            if enter is not None:
                if enter in path:
                    raise _CyclicWitness
                entry = self._best_entry(enter)
                if entry is None:
                    raise ExtractionError(f"no extractable term for e-class {enter}")
                path.add(enter)
                frames.append((enter, entry[1], []))
                enter = None
            current, enode, terms = frames[-1]
            while len(terms) < len(enode.args):
                child = find(enode.args[len(terms)])
                memoized = memo.get(child)
                if memoized is None:
                    enter = child
                    break
                terms.append(memoized)
            if enter is not None:
                continue
            term = memo[current] = Term(enode.op, tuple(terms))
            path.discard(current)
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
    entry it lacks, and :meth:`_KBestEngine.get` produces that entry and
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

    def _init(self, engine: "_KBestEngine") -> None:
        self._initialized = True
        engine.expanded += 1
        egraph = engine.egraph
        find = egraph.find
        key = engine.analysis_key
        # A child shares a blocked class's SCC exactly when it is in this
        # class's own cycle set; its stream then carries a banned set.
        cycle = engine.cycle_set(self.class_id) if key is not None else frozenset()
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
            if key is not None:
                for position, arg in enumerate(enode.args):
                    if arg not in cycle:
                        data = egraph.analysis_data(arg, key)
                        if data is not None:
                            prices[position] = data[0]
            self._nodes.append((enode, [None] * len(enode.args), prices))
        self._queued = [
            (index, (0,) * len(self._nodes[index][0].args))
            for index in reversed(range(len(self._nodes)))
        ]

    def _child(self, engine: "_KBestEngine", index: int, position: int) -> "_Stream":
        """The stream of e-node ``index``'s child at ``position``, created on first use."""
        enode, children, _ = self._nodes[index]
        child = children[position]
        if child is None:
            child = children[position] = engine.stream(enode.args[position], self._blocked)
        return child

    def _push(self, engine: "_KBestEngine", index: int, ranks: Tuple[int, ...]) -> Optional[_Need]:
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
            child = self._child(engine, index, position)
            if rank < len(child.entries):
                child_costs.append(child.entries[rank].cost)
            elif child.exhausted():
                self._pushed.add(key)
                return None
            else:
                return child, rank
        self._pushed.add(key)
        cost = engine.cost_function(enode.op, child_costs)
        heapq.heappush(self._heap, (cost, next(engine.seq), index, ranks))
        return None

    def advance(self, engine: "_KBestEngine", rank: int) -> Optional[_Need]:
        """Work toward ``entries[rank]``; return the child entry needed first.

        Returns None once the entry exists or the stream is exhausted below
        it.
        """
        if not self._initialized:
            self._init(engine)
        entries = self.entries
        heap = self._heap
        queued = self._queued
        while len(entries) <= rank:
            while queued:
                need = self._push(engine, *queued[-1])
                if need is not None:
                    return need
                queued.pop()
            if not heap:
                return None
            cost, _, index, ranks = heap[0]
            terms = []
            for position, child_rank in enumerate(ranks):
                child = self._child(engine, index, position)
                if child_rank >= len(child.entries):
                    if child.exhausted():
                        raise ExtractionError(
                            f"e-class {child.class_id} has an analysis cost "
                            "but no realizable term"
                        )
                    return child, child_rank
                terms.append(child.entries[child_rank].term)
            heapq.heappop(heap)
            engine.pops += 1
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


class _KBestEngine:
    """Shared stream registry, SCC index and work stack for one (e-graph, cost fn) pair.

    Streams are memoized on ``(class id, banned set)`` after intersecting
    the inherited banned set with the class's *cycle set* — the members of
    its strongly connected component when that SCC is non-trivial, else the
    empty set.  A banned ancestor outside the class's SCC can never be
    reached again (the SCC condensation is acyclic), so dropping it is
    sound and collapses almost every request onto the context-free stream.

    ``analysis`` is the :class:`CostAnalysis` that prices rank 0, or None
    to read every rank from the streams (see the module docstring).
    """

    def __init__(self, egraph: EGraph, cost_function: CostFunction,
                 analysis: Optional[CostAnalysis]):
        self.egraph = egraph
        self.cost_function = cost_function
        self.analysis_key = None if analysis is None else analysis.key
        self.seq = itertools.count()  # heap tiebreaker: deterministic FIFO
        self._streams: Dict[Tuple[int, frozenset], _Stream] = {}
        self._cycle_sets: Dict[int, frozenset] = {}
        self._scc_index: Dict[int, int] = {}
        self._scc_low: Dict[int, int] = {}
        #: Work counters: streams whose ``_init`` ran, and heap pops.
        self.expanded = 0
        self.pops = 0

    def stream(self, class_id: int, banned: frozenset = frozenset()) -> _Stream:
        class_id = self.egraph.find(class_id)
        banned = banned & self.cycle_set(class_id)
        key = (class_id, banned)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream(class_id, banned)
        return stream

    def get(self, stream: _Stream, rank: int) -> Optional[RankedTerm]:
        """``stream``'s ``rank``-th cheapest distinct term, or None past its end.

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

    def counters(self) -> Dict[str, int]:
        """Streams created and expanded, heap pops, classes the SCC index visited."""
        return {
            "streams": len(self._streams),
            "expanded": self.expanded,
            "pops": self.pops,
            "scc_classes": len(self._scc_index),
        }

    # -- SCC index --------------------------------------------------------------

    def cycle_set(self, class_id: int) -> frozenset:
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


class TopKExtractor:
    """Extraction of the k cheapest distinct realizable terms per e-class.

    A thin facade over the lazy stream machinery (see the module
    docstring): nothing is computed until a query forces it, and a query
    for class ``c`` expands only the classes its answer needs.  Every
    class reachable from ``c`` is still visited once by the SCC index.
    When the e-graph carries a quiescent :class:`CostAnalysis` for
    ``cost_function``, that analysis prices rank 0.
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
        self._engine = _KBestEngine(egraph, cost_function, matching_analysis(egraph, cost_function))

    # -- queries -----------------------------------------------------------------

    def extract_top_k(self, class_id: int) -> List[RankedTerm]:
        """Up to k cheapest distinct realizable terms, best first.

        Fewer than k entries come back when the class offers fewer distinct
        realizable terms (e.g. every other candidate descends into an
        equivalence cycle).
        """
        engine = self._engine
        stream = engine.stream(class_id)
        entries: List[RankedTerm] = []
        for rank in range(self.k):
            entry = engine.get(stream, rank)
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
        return self._engine.counters()

    def best_per_enode(self, class_id: int) -> List[RankedTerm]:
        """The cheapest term rooted at each distinct e-node of ``class_id``.

        Whereas :meth:`extract_top_k` returns the k globally cheapest terms
        (which for CAD models are often near-identical affine reorderings of
        one another), this query returns one representative per alternative
        the e-class actually offers at its root — e.g. the original boolean
        chain, the affine-lifted variant, and the ``Fold``-based structured
        variant each contribute their own candidate.  The pipeline combines
        both views to build a useful top-k (see ``repro.core.pipeline``).
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
                child = self._engine.get(self._engine.stream(arg, blocked), 0)
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
