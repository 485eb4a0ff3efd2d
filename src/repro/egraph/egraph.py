"""The e-graph: hash-consed e-nodes, e-classes, and congruence closure.

An e-graph compactly represents a set of equivalent terms (paper Section
3.1).  It is a union-find over *e-class ids* plus, per e-class, a set of
*e-nodes* — operators applied to argument e-class ids.  Adding a term
hash-conses it; merging two e-classes records a new equivalence; rebuilding
restores the two invariants that make e-matching sound:

* **hashcons invariant** — every canonical e-node maps to exactly one
  canonical e-class id;
* **congruence invariant** — e-nodes that become identical after
  canonicalizing their children live in the same e-class.

Rebuilding is deferred (egg-style): merges enqueue dirty classes and a
single :meth:`EGraph.rebuild` pass repairs the invariants before the next
round of matching.

**Flat node representation.**  Internally an e-node is a plain tuple
``(op_id, *arg_ids)`` of integers: the operator is interned into a dense id
by the e-graph's :class:`~repro.egraph.symbols.SymbolTable` and the
arguments are e-class ids.  Hashcons keys, class node lists, and parent
logs all store these flat tuples, so the hot loops (hashcons probes,
congruence repair, compiled e-matching) hash and compare nothing but small
integer tuples — and canonicalization (:meth:`EGraph.canonical_flat`)
returns its input *unchanged* when every argument is already canonical,
making the common post-rebuild case allocation-free.  The public surface
still speaks :class:`ENode`: :meth:`EGraph.add_enode` encodes at the
boundary and :meth:`EGraph.nodes` decodes (with a per-class cache), so code
outside the ``egraph`` package never sees a flat tuple.  Package-internal
consumers use :meth:`EGraph.flat_nodes` / :attr:`EClass.flat` directly.

**Dirty-class tracking (the search-epoch protocol).**  Besides the rebuild
worklist the e-graph records, in :attr:`EGraph._dirty`, every e-class whose
*match set* may have changed since the last search epoch: classes created by
:meth:`add_enode` and the surviving class of every :meth:`merge` (including
congruence merges performed during :meth:`rebuild`).  Node lists only ever
grow through those two operations, so the set is a sound over-approximation
of "where new pattern matches can appear rooted".  An incremental matcher
(see :class:`repro.egraph.pattern.IncrementalMatcher`) calls
:meth:`take_dirty` once per search epoch to consume the set — matches rooted
in an untouched class can only change through a touched *descendant*, which
the matcher covers by closing the dirty set upward over parent pointers to
its patterns' maximum depth.

**E-class analyses.**  An :class:`Analysis` attaches a small piece of data
to every e-class — a best extraction cost, a constant value, an interval —
and the e-graph keeps it consistent through every structural change, the
same mechanism egg uses for constant folding and cost tracking:

* :meth:`Analysis.make` computes the data an e-node contributes, reading
  its children's data through the e-graph;
* :meth:`Analysis.merge` combines the data of two classes that became
  equal (it must be a semilattice join: commutative, associative,
  idempotent — for a cost analysis, ``min``);
* :meth:`Analysis.modify` may inspect/extend the class after its data
  changed (egg uses this for constant folding; the default is a no-op).

:meth:`EGraph.add_enode` makes data for every fresh class immediately, so
analysis data is *total*: every live class has a value for every registered
analysis.  :meth:`EGraph.merge` joins the two sides' data; the parent
e-nodes of each side whose previous value differs from the join are
queued for re-``make`` and the improvements propagate upward during
:meth:`rebuild` — interleaved with congruence repair, because congruence
merges themselves join data.  Analyses registered late
(:meth:`register_analysis`) are initialized retroactively with the same
worklist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.egraph.symbols import Operator, SymbolTable
from repro.egraph.unionfind import UnionFind
from repro.lang.term import Term

#: Internal e-node representation: ``(op_id, *arg_ids)``.
FlatNode = Tuple[int, ...]


@dataclass(frozen=True)
class ENode:
    """An operator applied to argument e-class ids (the public facade).

    The e-graph stores nodes as flat integer tuples internally (see the
    module docstring); ``ENode`` is what crosses the package boundary —
    rule appliers build them, :meth:`EGraph.nodes` returns them, analyses
    receive them in :meth:`Analysis.make`.
    """

    op: Operator
    args: Tuple[int, ...] = ()

    def canonicalize(self, find) -> "ENode":
        """Return this e-node with every argument id canonicalized.

        Allocation-free when nothing changes: if every argument is already
        canonical, ``self`` is returned unchanged.
        """
        for arg in self.args:
            if find(arg) != arg:
                return ENode(self.op, tuple(find(a) for a in self.args))
        return self

    @property
    def is_leaf(self) -> bool:
        return not self.args


class Analysis:
    """An e-class analysis: per-class data maintained under congruence.

    Subclasses choose a unique :attr:`key` (the slot in :attr:`EClass.data`
    the values live under) and implement :meth:`make` and :meth:`merge`;
    :meth:`modify` is optional.  Values must support ``==`` (change
    detection) and should be immutable — the e-graph stores them by
    reference and compares them to decide what to re-propagate.
    """

    #: Slot name in :attr:`EClass.data`; must be unique per e-graph.
    key: str = "analysis"

    def make(self, egraph: "EGraph", enode: "ENode"):
        """The data ``enode`` contributes to its class.

        ``enode`` has canonical argument ids; read child data via
        :meth:`EGraph.analysis_data`.  Return ``None`` when nothing can be
        concluded yet (e.g. a child has no data) — the e-node is re-made
        automatically once a child's data changes.
        """
        raise NotImplementedError

    def merge(self, a, b):
        """Join the data of two classes that became equal.

        Must be a semilattice join — in particular ``merge(a, a) == a`` —
        or propagation may not terminate.
        """
        raise NotImplementedError

    def modify(self, egraph: "EGraph", class_id: int) -> None:
        """Hook run after ``class_id``'s data was created or changed.

        May add e-nodes or merge classes (egg-style constant folding); the
        default does nothing.
        """


class EClass:
    """A set of equivalent e-nodes plus back-pointers to parent e-nodes.

    Node storage is flat (:attr:`flat`, see the module docstring); the
    :attr:`nodes` property decodes to :class:`ENode` facades on demand and
    caches the decoded list until the flat list next changes.  All
    mutations go through :meth:`append_flat` / :meth:`extend_flat` /
    :meth:`replace_flat` so the cache can never go stale.
    """

    __slots__ = ("id", "flat", "parents", "data", "_symbols", "_decoded")

    def __init__(self, id: int, symbols: SymbolTable):
        self.id = id
        #: Flat e-nodes ``(op_id, *arg_ids)`` of this class.
        self.flat: List[FlatNode] = []
        #: (flat parent e-node as inserted, parent e-class id) pairs: a log
        #: read by rebuild, analysis propagation and the incremental
        #: matcher's dirty closure, each canonicalizing what it reads.
        self.parents: List[Tuple[FlatNode, int]] = []
        #: Arbitrary per-class analysis data (used by the determinizer and
        #: cost analyses in :mod:`repro.core`).
        self.data: dict = {}
        self._symbols = symbols
        self._decoded: Optional[List[ENode]] = None

    @property
    def nodes(self) -> List[ENode]:
        """The e-nodes of this class, decoded (cached until the class changes)."""
        decoded = self._decoded
        if decoded is None:
            op = self._symbols.op
            decoded = self._decoded = [ENode(op(node[0]), node[1:]) for node in self.flat]
        return decoded

    def append_flat(self, node: FlatNode) -> None:
        self.flat.append(node)
        self._decoded = None

    def extend_flat(self, nodes: Iterable[FlatNode]) -> None:
        self.flat.extend(nodes)
        self._decoded = None

    def replace_flat(self, nodes: List[FlatNode]) -> None:
        self.flat = nodes
        self._decoded = None

    def __iter__(self) -> Iterator[ENode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.flat)


class EGraph:
    """A congruence-closed e-graph over :class:`~repro.lang.term.Term` languages."""

    def __init__(self) -> None:
        self._union_find = UnionFind()
        self._symbols = SymbolTable()
        self._classes: Dict[int, EClass] = {}
        self._hashcons: Dict[FlatNode, int] = {}
        self._pending: List[int] = []
        #: operator id -> set of e-class ids containing an e-node with that
        #: operator.  Used by e-matching to avoid scanning the whole graph;
        #: entries may be stale (non-canonical or over-approximate) and are
        #: re-canonicalized by readers.
        self._op_index: Dict[int, set] = {}
        #: e-class ids (possibly stale) touched since the last `take_dirty`;
        #: see the module docstring for the search-epoch protocol.
        self._dirty: Set[int] = set()
        #: Registered e-class analyses (see the module docstring).
        self._analyses: List[Analysis] = []
        #: (flat parent e-node, owner id) pairs whose analysis data must be
        #: re-made because a child's data changed; drained by rebuild().
        self._analysis_pending: List[Tuple[FlatNode, int]] = []
        #: Total analysis-data changes (creations + improvements) — runners
        #: snapshot this to report per-iteration analysis activity.
        self.analysis_updates = 0
        #: Exact ``sum(len(c.flat) for c in classes)``, maintained
        #: incrementally (add_enode grows it, rebuild-time dedup shrinks it)
        #: so :attr:`total_enodes` is O(1) instead of a full recount.
        self._enode_count = 0
        #: Monotone count of fresh hashcons inserts ever performed — an
        #: allocation counter runners snapshot per iteration (unlike
        #: ``_enode_count`` it never decreases).
        self.enodes_created = 0
        self.version = 0  # bumped on every structural change; used by runners

    # -- basic queries -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of (canonical) e-classes."""
        return len(self._classes)

    @property
    def symbols(self) -> SymbolTable:
        """The operator interner (package-internal consumers; see module docs)."""
        return self._symbols

    @property
    def total_enodes(self) -> int:
        """Total number of e-nodes across all e-classes (O(1), exact).

        Between rebuilds it also counts the e-nodes congruence will later
        dedupe, so the runner's node limit reads a slightly high bound.
        """
        return self._enode_count

    @property
    def union_version(self) -> int:
        """Count of effective unions; canonical ids are stable while it is.

        Any canonicalized value (e.g. an apply-phase match fingerprint)
        computed at union version ``v`` remains canonical as long as
        ``union_version == v`` — merges are the only operation that can
        change an id's representative.
        """
        return self._union_find.version

    def find(self, id_: int) -> int:
        """Canonical e-class id for ``id_``."""
        return self._union_find.find(id_)

    def classes(self) -> Iterable[EClass]:
        """Iterate over canonical e-classes."""
        return self._classes.values()

    def eclass(self, id_: int) -> EClass:
        """The canonical :class:`EClass` containing ``id_``."""
        return self._classes[self._union_find.find(id_)]

    def nodes(self, id_: int) -> List[ENode]:
        """The e-nodes of the e-class containing ``id_`` (decoded facades)."""
        return self.eclass(id_).nodes

    def flat_nodes(self, id_: int) -> List[FlatNode]:
        """The flat e-nodes of the e-class containing ``id_``.

        Package-internal fast path (compiled e-matching, extraction): the
        returned list is the live storage — callers must not mutate it.
        """
        return self._classes[self._union_find.find(id_)].flat

    def is_equal(self, a: int, b: int) -> bool:
        """True when the two ids refer to the same e-class."""
        return self.find(a) == self.find(b)

    def classes_with_op(self, op: Operator) -> List[int]:
        """Canonical ids of e-classes containing an e-node with operator ``op``.

        The index is maintained incrementally and may hold stale ids after
        merges; they are canonicalized and de-duplicated here, which keeps
        the common case (e-matching a specific operator) far cheaper than a
        full scan.
        """
        op_id = self._symbols.get(op)
        if op_id is None:
            return []
        ids = self._op_index.get(op_id)
        if not ids:
            return []
        find = self._union_find.find
        live = {find(i) for i in ids}
        live.intersection_update(self._classes)
        if live != ids:
            # Prune in place so repeated queries between rebuilds do not keep
            # re-canonicalizing the same stale ids.
            self._op_index[op_id] = live
        return list(live)

    # -- flat encoding helpers ---------------------------------------------------

    def canonical_flat(self, node: FlatNode) -> FlatNode:
        """``node`` with canonical argument ids; ``node`` itself if unchanged.

        The allocation-free fast path of the rebuild/search loops: after a
        rebuild almost every stored node already has canonical arguments, so
        the loop below usually runs to completion without allocating.
        """
        parents = self._union_find.parents
        for i in range(1, len(node)):
            if parents[node[i]] != node[i]:
                break
        else:
            return node
        find = self._union_find.find
        return (node[0],) + tuple(find(a) for a in node[1:])

    def _decode(self, node: FlatNode) -> ENode:
        """A facade :class:`ENode` for a flat node."""
        return ENode(self._symbols.op(node[0]), node[1:])

    # -- e-class analyses ---------------------------------------------------------

    @property
    def analyses(self) -> Tuple[Analysis, ...]:
        """The registered analyses, in registration order."""
        return tuple(self._analyses)

    def analysis_data(self, class_id: int, key: str, default=None):
        """The analysis value stored under ``key`` for ``class_id``'s class."""
        return self.eclass(class_id).data.get(key, default)

    def register_analysis(self, analysis: Analysis) -> Analysis:
        """Attach an analysis; existing classes are initialized retroactively.

        Idempotent for the *same* object (re-registering is a no-op, so a
        runner can re-run over a graph whose analysis already rides along);
        a different analysis under an already-taken key is rejected.
        """
        for existing in self._analyses:
            if existing is analysis:
                return analysis
            if existing.key == analysis.key:
                raise ValueError(f"analysis key {analysis.key!r} already registered")
        self._analyses.append(analysis)
        # Retroactive init: seed every (enode, class) pair and run the same
        # worklist rebuild() uses.  Leaves make() successfully right away;
        # parents that see a child without data return None and are re-made
        # when the child's data lands (_set_analysis_data enqueues parents
        # on every change, including the first).
        if self._classes:
            for eclass in self._classes.values():
                for node in eclass.flat:
                    self._analysis_pending.append((node, eclass.id))
            self._process_analysis_pending()
        return analysis

    def _set_analysis_data(self, analysis: Analysis, class_id: int, value) -> bool:
        """Join ``value`` into a class's slot; propagate if it changed."""
        # A modify() hook of an earlier analysis may have merged the class
        # away within the same update loop; address the survivor.
        class_id = self.find(class_id)
        eclass = self._classes[class_id]
        old = eclass.data.get(analysis.key)
        new = value if old is None else analysis.merge(old, value)
        if new == old:
            return False
        eclass.data[analysis.key] = new
        self.analysis_updates += 1
        self._analysis_pending.extend(eclass.parents)
        analysis.modify(self, class_id)
        return True

    def _process_analysis_pending(self) -> None:
        """Re-make queued parent e-nodes until analysis data is stable."""
        find = self._union_find.find
        while self._analysis_pending:
            batch = self._analysis_pending
            self._analysis_pending = []
            seen: Set[Tuple[FlatNode, int]] = set()
            for node, owner in batch:
                owner = find(owner)
                if owner not in self._classes:
                    continue
                node = self.canonical_flat(node)
                entry = (node, owner)
                if entry in seen:
                    continue
                seen.add(entry)
                facade = self._decode(node)
                for analysis in self._analyses:
                    made = analysis.make(self, facade)
                    if made is not None:
                        self._set_analysis_data(analysis, owner, made)

    # -- insertion ----------------------------------------------------------------

    def add_enode(self, enode: ENode) -> int:
        """Insert an e-node (hash-consed) and return its e-class id."""
        find = self._union_find.find
        flat = (self._symbols.intern(enode.op),) + tuple(find(a) for a in enode.args)
        existing = self._hashcons.get(flat)
        if existing is not None:
            return find(existing)
        class_id = self._union_find.make_set()
        eclass = EClass(class_id, self._symbols)
        eclass.append_flat(flat)
        self._classes[class_id] = eclass
        self._hashcons[flat] = class_id
        self._op_index.setdefault(flat[0], set()).add(class_id)
        self._dirty.add(class_id)
        self._enode_count += 1
        self.enodes_created += 1
        for arg in flat[1:]:
            self._classes[arg].parents.append((flat, class_id))
        if self._analyses:
            facade = self._decode(flat)
            for analysis in self._analyses:
                made = analysis.make(self, facade)
                if made is not None:
                    self._set_analysis_data(analysis, class_id, made)
        self.version += 1
        return class_id

    def add_term(self, term: Term) -> int:
        """Insert a whole term bottom-up and return the root e-class id.

        Children are added left to right before their parent, from an
        explicit stack, so a deep term needs no recursion.
        """
        ids: List[int] = []  # ids of finished subterms not yet consumed
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            arity = len(node.children)
            if expanded or not arity:
                args = tuple(ids[len(ids) - arity:]) if arity else ()
                del ids[len(ids) - arity:]
                ids.append(self.add_enode(ENode(node.op, args)))
            else:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))
        return ids[0]

    def add_leaf(self, op: Operator) -> int:
        """Insert a leaf e-node."""
        return self.add_enode(ENode(op))

    def lookup_term(self, term: Term) -> Optional[int]:
        """The e-class id of ``term`` if the e-graph already represents it.

        Walks like :meth:`add_term`, from an explicit stack.
        """
        find = self._union_find.find
        ids: List[int] = []  # ids of found subterms not yet consumed
        stack: List[Tuple[Term, int]] = [(term, -1)]
        while stack:
            node, op_id = stack.pop()
            arity = len(node.children)
            if op_id < 0:
                op_id = self._symbols.get(node.op)
                if op_id is None:
                    return None
                if arity:
                    stack.append((node, op_id))
                    stack.extend((child, -1) for child in reversed(node.children))
                    continue
            args = tuple(ids[len(ids) - arity:]) if arity else ()
            del ids[len(ids) - arity:]
            found = self._hashcons.get((op_id,) + args)
            if found is None:
                return None
            ids.append(find(found))
        return ids[0]

    # -- merging and rebuilding -----------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Assert that e-classes ``a`` and ``b`` are equal.

        Returns the surviving canonical id.  The actual invariant repair is
        deferred until :meth:`rebuild`.

        Plain (non-analysis) data keys are merged shallowly with a
        deterministic policy: on a key conflict the data of ``b`` (the second
        argument) wins, regardless of which class ends up canonical.
        Rewrites call ``merge(matched, new)``, so the value attached to the
        freshly constructed class — the "later writer" — is the one that
        survives.  Slots owned by a registered :class:`Analysis` are instead
        joined with :meth:`Analysis.merge`, and the parents of each side
        whose value the join changed are queued for re-``make`` (see the
        module docstring).
        """
        a_root = self.find(a)
        b_root = self.find(b)
        if a_root == b_root:
            return a_root
        merged_data = {**self._classes[a_root].data, **self._classes[b_root].data}
        # Keep the class with more parents as canonical to move less data.
        if len(self._classes[a_root].parents) < len(self._classes[b_root].parents):
            a_root, b_root = b_root, a_root
        keep = self._union_find.union(a_root, b_root)
        merged_away = b_root if keep == a_root else a_root
        keep_class = self._classes[keep]
        gone_class = self._classes.pop(merged_away)
        keep_data_pre = keep_class.data
        # Analysis slots are joined below, starting from the keep side's
        # previous value — the b-wins shallow policy must not clobber them.
        for analysis in self._analyses:
            pre = keep_data_pre.get(analysis.key)
            if pre is None:
                merged_data.pop(analysis.key, None)
            else:
                merged_data[analysis.key] = pre
        keep_class.extend_flat(gone_class.flat)
        keep_class.parents.extend(gone_class.parents)
        keep_class.data = merged_data
        for analysis in self._analyses:
            gone_value = gone_class.data.get(analysis.key)
            changed = gone_value is not None and self._set_analysis_data(
                analysis, keep, gone_value
            )
            # A change queues every parent, the absorbed side's included.
            # When the surviving value wins instead, the absorbed side's
            # parents were still made against its old value: re-make them.
            if not changed and keep_class.data.get(analysis.key) != gone_value:
                self._analysis_pending.extend(gone_class.parents)
        self._pending.append(keep)
        # Record the survivor (its match set grew) AND the absorbed root:
        # the raw id stream lets an incremental match cache evict exactly
        # the keys that lost canonicity instead of scanning every entry.
        self._dirty.add(keep)
        self._dirty.add(merged_away)
        self.version += 1
        return keep

    def rebuild(self) -> int:
        """Restore the hashcons and congruence invariants.

        Also drains the analysis worklist: queued parent re-``make``\\ s run
        interleaved with congruence repair, because congruence merges join
        analysis data (possibly queuing more re-makes) and analysis
        improvements never create new merges by themselves — except through
        :meth:`Analysis.modify`, which is handled by the outer loop.

        Returns the number of repair passes performed.  Safe to call when
        nothing is pending.
        """
        passes = 0
        while self._pending or self._analysis_pending:
            if self._pending:
                passes += 1
                todo = {self.find(id_) for id_ in self._pending}
                self._pending.clear()
                for class_id in todo:
                    self._repair(class_id)
            self._process_analysis_pending()
        self._rebuild_hashcons()
        return passes

    def _repair(self, class_id: int) -> None:
        """Re-canonicalize the parents of a recently merged class and detect
        newly congruent parents."""
        find = self._union_find.find
        class_id = find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return
        canonical_flat = self.canonical_flat
        hashcons = self._hashcons
        seen: Dict[FlatNode, int] = {}
        for parent_node, parent_id in eclass.parents:
            canonical_node = canonical_flat(parent_node)
            parent_id = find(parent_id)
            previous = seen.get(canonical_node)
            if previous is not None and previous != parent_id:
                # Two parents became congruent: merge their classes.
                merged = self.merge(previous, parent_id)
                seen[canonical_node] = find(merged)
            else:
                seen[canonical_node] = parent_id
            hashcons[canonical_node] = find(seen[canonical_node])
        # Deduplicated rewrite of the log: repeated merges into a hub class
        # would otherwise grow its parents list with one entry per historical
        # merge, which every reader (the matcher's dirty closure, the
        # analysis worklist) would then re-canonicalize per visit.
        new_parents: List[Tuple[FlatNode, int]] = [
            (node, find(owner)) for node, owner in seen.items()
        ]
        # Replace the log only while this class is still canonical.  If a
        # congruence merge above folded it into another class, that class's
        # parents log already absorbed ours via merge(); overwriting it with
        # just our snapshot would drop the absorber's own parents (the raw
        # combined log is merely stale, which readers canonicalize away).
        if find(class_id) == class_id:
            eclass.parents = new_parents

    def _rebuild_hashcons(self) -> None:
        """Fully re-canonicalize e-nodes, the hashcons, and class node lists."""
        find = self._union_find.find
        canonical_flat = self.canonical_flat
        new_hashcons: Dict[FlatNode, int] = {}
        new_op_index: Dict[int, set] = {}
        for class_id in list(self._classes.keys()):
            canonical_id = find(class_id)
            if canonical_id != class_id:
                continue
            eclass = self._classes[class_id]
            unique_nodes: Dict[FlatNode, None] = {}
            for node in eclass.flat:
                canonical_node = canonical_flat(node)
                unique_nodes[canonical_node] = None
                existing = new_hashcons.get(canonical_node)
                if existing is not None and find(existing) != canonical_id:
                    # Congruent nodes in distinct classes: merge and note that
                    # another pass is required.
                    self._pending.append(self.merge(existing, canonical_id))
                new_hashcons[canonical_node] = find(canonical_id)
                new_op_index.setdefault(canonical_node[0], set()).add(canonical_id)
            self._enode_count -= len(eclass.flat) - len(unique_nodes)
            eclass.replace_flat(list(unique_nodes.keys()))
        self._hashcons = new_hashcons
        self._op_index = new_op_index
        if self._pending:
            # A congruence found during hashcons rebuilding requires another
            # repair round; recursion depth is bounded by the lattice of
            # merges.
            self.rebuild()

    # -- dirty-class tracking (search epochs) ------------------------------------

    def dirty_classes(self) -> Set[int]:
        """Canonical ids of live classes touched since the last :meth:`take_dirty`.

        Stale ids (classes merged away since they were recorded) are folded
        into their canonical survivors; ids whose class disappeared entirely
        are dropped.  The underlying set is not cleared.
        """
        live = {self.find(id_) for id_ in self._dirty}
        live.intersection_update(self._classes)
        return live

    def take_dirty(self) -> Set[int]:
        """Consume and return the canonical dirty set, starting a new epoch.

        One consumer owns the dirty stream: calling this clears the set, so
        two independent incremental matchers over the same e-graph would
        starve each other.  (The runner creates one matcher per run and
        opens with a full sweep, which makes the hand-off safe.)
        """
        dirty = self.dirty_classes()
        self._dirty.clear()
        return dirty

    def take_dirty_raw(self) -> Set[int]:
        """Consume and return the *raw* dirty ids, starting a new epoch.

        Unlike :meth:`take_dirty` the ids are returned as recorded — they
        include roots that have since been merged away.  An incremental
        match cache keyed by canonical-at-insert-time class ids can evict
        exactly ``raw | closure`` instead of probing every cached key for
        staleness; canonicalize with :meth:`find` to recover the set
        :meth:`take_dirty` would have returned.
        """
        raw = set(self._dirty)
        self._dirty.clear()
        return raw

    # -- invariant checking (debug/tests only) -----------------------------------

    def check_invariants(self) -> bool:
        """Assert the e-graph's structural invariants; returns True.

        Debug-only: every check is O(nodes) or worse, so production paths
        must never call this.  Always checked:

        * class-table keys are exactly the union-find roots that own nodes,
          and ``find`` actually path-compresses (after a full ``find`` sweep
          no chain longer than one hop may remain — this guards the
          union-find *implementation*; lazily uncompressed chains between
          finds are normal and not a defect);
        * every parent-log entry resolves to a live class;
        * the dirty set is sound: every recorded id still resolves to a live
          class (or was merged into one);
        * the incremental e-node counter agrees with a full recount.

        When no merges are pending (i.e. immediately after :meth:`rebuild`)
        the deferred invariants must hold too:

        * **hashcons canonical** — the hashcons keys are exactly the
          canonicalized e-nodes stored in the classes, and every value is
          the canonical id of the class holding that node;
        * **congruence closed** — no two distinct classes contain the same
          canonical e-node;
        * **analyses quiescent** — every class's stored analysis value
          absorbs every e-node's ``make`` (joining any of them changes
          nothing), i.e. no propagation work remains.
        """
        find = self._union_find.find
        self._union_find.compress_all()
        assert self._union_find.is_fully_compressed(), (
            "UnionFind.find failed to path-compress during a full sweep"
        )
        roots = set(self._union_find.roots())
        class_ids = set(self._classes)
        assert class_ids == roots, (
            f"class table / union-find roots diverge: "
            f"classes-only {class_ids - roots}, roots-only {roots - class_ids}"
        )
        recount = sum(len(c.flat) for c in self._classes.values())
        assert recount == self._enode_count, (
            f"incremental e-node count {self._enode_count} diverges from "
            f"recount {recount}"
        )
        for class_id, eclass in self._classes.items():
            assert eclass.id == class_id, f"class {class_id} mislabelled as {eclass.id}"
            assert eclass.flat, f"class {class_id} has no e-nodes"
            for node in eclass.flat:
                assert 0 <= node[0] < len(self._symbols), (
                    f"node {node} in class {class_id} has an uninterned operator id"
                )
                for arg in node[1:]:
                    assert find(arg) in self._classes, (
                        f"node {node} in class {class_id} has dangling child {arg}"
                    )
            for _parent_node, parent_id in eclass.parents:
                assert find(parent_id) in self._classes, (
                    f"parent log of class {class_id} references dead class {parent_id}"
                )
        for id_ in self._dirty:
            assert 0 <= id_ < len(self._union_find), f"dirty id {id_} never allocated"
            assert find(id_) in self._classes, (
                f"dirty id {id_} resolves to no live class"
            )
        if not self._pending:
            node_owner: Dict[FlatNode, int] = {}
            canonical_nodes: Set[FlatNode] = set()
            for class_id, eclass in self._classes.items():
                for node in eclass.flat:
                    canonical = self.canonical_flat(node)
                    assert canonical == node, (
                        f"class {class_id} stores non-canonical node {node}"
                    )
                    previous = node_owner.setdefault(canonical, class_id)
                    assert previous == class_id, (
                        f"congruence violated: {canonical} in classes "
                        f"{previous} and {class_id}"
                    )
                    canonical_nodes.add(canonical)
            assert set(self._hashcons) == canonical_nodes, (
                "hashcons keys diverge from stored canonical nodes"
            )
            for node, owner in self._hashcons.items():
                assert find(owner) == node_owner[node], (
                    f"hashcons maps {node} to {owner}, nodes live in {node_owner[node]}"
                )
        if not self._pending and not self._analysis_pending:
            for analysis in self._analyses:
                for class_id, eclass in self._classes.items():
                    stored = eclass.data.get(analysis.key)
                    for node in eclass.flat:
                        made = analysis.make(self, self._decode(self.canonical_flat(node)))
                        if made is None:
                            continue
                        assert stored is not None, (
                            f"analysis {analysis.key!r}: class {class_id} has no "
                            f"data but {node} makes {made!r}"
                        )
                        assert analysis.merge(stored, made) == stored, (
                            f"analysis {analysis.key!r} not quiescent in class "
                            f"{class_id}: stored {stored!r} does not absorb "
                            f"{made!r} from {node}"
                        )
        return True

    # -- debugging ---------------------------------------------------------------

    def dump(self) -> str:
        """A compact human-readable dump used in debugging and tests."""
        lines = []
        for eclass in sorted(self._classes.values(), key=lambda c: c.id):
            rendered = ", ".join(
                f"({node.op} {' '.join(str(a) for a in node.args)})" if node.args else str(node.op)
                for node in eclass.nodes
            )
            lines.append(f"e{eclass.id}: {rendered}")
        return "\n".join(lines)
