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

Rebuilding is deferred (egg-style): merges enqueue the surviving class on
a worklist, and :meth:`EGraph.rebuild` repairs the invariants from that
worklist alone before the next round of matching.  A stored e-node becomes
non-canonical only when one of its children is merged away, and then it
sits in the merged class's parents log; so repairing a merged class
(re-canonicalizing its parents, merging the ones that became congruent)
records every parent's owner as *touched*, and once the worklist drains
only the touched classes' node lists are canonicalized, de-duplicated and
re-keyed in the hashcons.  A rebuild costs O(touched classes), not
O(graph).

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
:meth:`add_enode` and both sides of every :meth:`merge` (including
congruence merges performed during :meth:`rebuild`).  Node lists only ever
grow through those two operations, so the set is a sound over-approximation
of "where new pattern matches can appear rooted".  An incremental matcher
(see :class:`repro.egraph.pattern.IncrementalMatcher`) calls
:meth:`take_dirty` once per search epoch to consume the raw ids — matches
rooted in an untouched class can only change through a touched
*descendant*, which the matcher covers by closing the canonical dirty
classes upward over parent pointers to its patterns' maximum depth.

**The best-cost slot.**  Every e-class carries one analysis, built in:
the best AST-size cost of a term it represents (:attr:`EClass.cost`) and
the flat e-node that achieves it (:attr:`EClass.witness`), the data egg's
cost analyses keep.  AST size is the paper's default extraction cost: an
e-node costs one plus the best costs of its children.

* :meth:`EGraph.add_enode` makes the slot of a fresh class from its
  children's slots, so every live class has one;
* :meth:`EGraph.merge` keeps the cheaper side's slot (on a tie, the
  surviving class keeps its own) and queues the parent e-nodes made
  against the dearer side;
* :meth:`EGraph.rebuild` re-prices queued parents in batches, each
  improvement queuing its own class's parents, interleaved with
  congruence repair, whose merges join slots too.

Stored costs only fall, and a class's stored cost was one plus the sum of
its witness's children's costs when that witness was chosen.  So even
with merges pending, a walk down the witnesses reaches every child at a
strictly smaller stored cost and never revisits a class
(:class:`repro.egraph.extract.Extractor` relies on this).
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
    rule appliers build them and :meth:`EGraph.nodes` returns them.
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


class EClass:
    """A set of equivalent e-nodes plus back-pointers to parent e-nodes.

    Node storage is flat (:attr:`flat`, see the module docstring); the
    :attr:`nodes` property decodes to :class:`ENode` facades on demand and
    caches the decoded list until the flat list next changes.  All
    mutations go through :meth:`append_flat` / :meth:`extend_flat` /
    :meth:`replace_flat` so the cache can never go stale.
    """

    __slots__ = ("id", "flat", "parents", "cost", "witness", "_symbols", "_decoded")

    def __init__(self, id: int, symbols: SymbolTable, node: FlatNode, cost: float):
        self.id = id
        #: Flat e-nodes ``(op_id, *arg_ids)`` of this class.
        self.flat: List[FlatNode] = [node]
        #: (flat parent e-node as inserted, parent e-class id) pairs: a log
        #: read by rebuild, cost propagation and the incremental matcher's
        #: dirty closure, each canonicalizing what it reads.
        self.parents: List[Tuple[FlatNode, int]] = []
        #: The best AST-size cost of a term in this class, and the flat
        #: e-node achieving it (its arguments canonical when it was chosen);
        #: see the module docstring.
        self.cost = cost
        self.witness = node
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
        #: e-class ids (possibly stale) touched since the last `take_dirty`;
        #: see the module docstring for the search-epoch protocol.
        self._dirty: Set[int] = set()
        #: (flat parent e-node, owner id) pairs to re-price because a
        #: child's best cost fell; drained by rebuild().
        self._cost_pending: List[Tuple[FlatNode, int]] = []
        #: Best-cost slots made or lowered so far — runners snapshot this to
        #: report per-iteration analysis activity.
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

    # -- the best-cost slot --------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when no merge or cost propagation waits for :meth:`rebuild`.

        Then every class's :attr:`EClass.cost` is the cheapest AST size of
        a term it represents.
        """
        return not self._pending and not self._cost_pending

    def _propagate_costs(self) -> None:
        """Re-price queued parent e-nodes until no best cost falls.

        Batch by batch: an improvement queues its class's parents for the
        next batch, and each ``(e-node, owner)`` pair is priced once per
        batch.
        """
        find = self._union_find.find
        classes = self._classes
        while self._cost_pending:
            batch = self._cost_pending
            self._cost_pending = []
            seen: Set[Tuple[FlatNode, int]] = set()
            for node, owner in batch:
                node = self.canonical_flat(node)
                entry = (node, find(owner))
                if entry in seen:
                    continue
                seen.add(entry)
                cost = 1.0 + sum([classes[arg].cost for arg in node[1:]])
                eclass = classes[entry[1]]
                if cost < eclass.cost:
                    eclass.cost = cost
                    eclass.witness = node
                    self.analysis_updates += 1
                    self._cost_pending.extend(eclass.parents)

    # -- insertion ----------------------------------------------------------------

    def add_enode(self, enode: ENode) -> int:
        """Insert an e-node (hash-consed) and return its e-class id."""
        find = self._union_find.find
        flat = (self._symbols.intern(enode.op),) + tuple(find(a) for a in enode.args)
        existing = self._hashcons.get(flat)
        if existing is not None:
            return find(existing)
        class_id = self._union_find.make_set()
        classes = self._classes
        cost = 1.0 + sum([classes[arg].cost for arg in flat[1:]])
        classes[class_id] = EClass(class_id, self._symbols, flat, cost)
        self._hashcons[flat] = class_id
        self._dirty.add(class_id)
        self._enode_count += 1
        self.enodes_created += 1
        self.analysis_updates += 1
        for arg in flat[1:]:
            classes[arg].parents.append((flat, class_id))
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
        deferred until :meth:`rebuild`; the best-cost slots are joined at
        once (see the module docstring).
        """
        a_root = self.find(a)
        b_root = self.find(b)
        if a_root == b_root:
            return a_root
        # Keep the class with more parents as canonical to move less data.
        if len(self._classes[a_root].parents) < len(self._classes[b_root].parents):
            a_root, b_root = b_root, a_root
        keep = self._union_find.union(a_root, b_root)
        merged_away = b_root if keep == a_root else a_root
        keep_class = self._classes[keep]
        gone_class = self._classes.pop(merged_away)
        keep_class.extend_flat(gone_class.flat)
        keep_class.parents.extend(gone_class.parents)
        if gone_class.cost < keep_class.cost:
            # The absorbed side is cheaper: every parent, its own included,
            # was priced against a dearer class.
            keep_class.cost = gone_class.cost
            keep_class.witness = gone_class.witness
            self.analysis_updates += 1
            self._cost_pending.extend(keep_class.parents)
        elif (gone_class.cost, gone_class.witness) != (keep_class.cost, keep_class.witness):
            # The survivor keeps its slot, on a tie too; the absorbed side's
            # parents were priced against the other slot.
            self._cost_pending.extend(gone_class.parents)
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

        Repairs the classes merges queued, and re-canonicalizes only the
        node lists those repairs touched (see the module docstring).  Also
        drains the cost worklist, interleaved with congruence repair:
        congruence merges join best-cost slots (possibly queuing more
        parents), and cost improvements never create merges.

        Returns the number of repair passes performed.  Safe to call when
        nothing is pending.
        """
        passes = 0
        touched: Set[int] = set()
        while self._pending or self._cost_pending:
            if self._pending:
                passes += 1
                todo = {self.find(id_) for id_ in self._pending}
                self._pending.clear()
                for class_id in todo:
                    self._repair(class_id, touched)
            self._propagate_costs()
        # Congruence is closed now: no canonical node of a touched class
        # lives in another class.  Every stored e-node is its own hashcons
        # key (add_enode stores both, this loop keeps it so), so a changed
        # node's stale key is the node itself.  Duplicates keep their
        # first occurrence.
        find = self._union_find.find
        canonical_flat = self.canonical_flat
        hashcons = self._hashcons
        for class_id in {find(id_) for id_ in touched}:
            eclass = self._classes[class_id]
            unique_nodes: Dict[FlatNode, None] = {}
            changed = False
            for node in eclass.flat:
                canonical_node = canonical_flat(node)
                if canonical_node is not node:
                    changed = True
                    hashcons.pop(node, None)
                    hashcons[canonical_node] = class_id
                unique_nodes[canonical_node] = None
            if changed:
                self._enode_count -= len(eclass.flat) - len(unique_nodes)
                eclass.replace_flat(list(unique_nodes))
        return passes

    def _repair(self, class_id: int, touched: Set[int]) -> None:
        """Re-canonicalize the parents of a recently merged class and detect
        newly congruent parents.

        Adds the owner of every parent e-node to ``touched``: the only
        classes whose stored e-nodes the merge can have made non-canonical
        (the merged class's own e-nodes changed only if it is such an owner).
        """
        find = self._union_find.find
        class_id = find(class_id)
        eclass = self._classes.get(class_id)
        if eclass is None:
            return
        canonical_flat = self.canonical_flat
        seen: Dict[FlatNode, int] = {}
        for parent_node, parent_id in eclass.parents:
            canonical_node = canonical_flat(parent_node)
            parent_id = find(parent_id)
            touched.add(parent_id)
            previous = seen.get(canonical_node)
            if previous is not None and previous != parent_id:
                # Two parents became congruent: merge their classes.
                merged = self.merge(previous, parent_id)
                seen[canonical_node] = find(merged)
            else:
                seen[canonical_node] = parent_id
        # Deduplicated rewrite of the log: repeated merges into a hub class
        # would otherwise grow its parents list with one entry per historical
        # merge, which every reader (the matcher's dirty closure, the cost
        # worklist) would then re-canonicalize per visit.
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

    # -- dirty-class tracking (search epochs) ------------------------------------

    def take_dirty(self) -> Set[int]:
        """Consume and return the dirty ids, starting a new search epoch.

        The ids are returned as recorded, so they include roots merged away
        since: an incremental match cache keyed by canonical-at-insert-time
        class ids evicts exactly these ids plus its closure instead of
        probing every cached key for staleness.  :meth:`find` maps each to
        its live class.  One consumer owns the dirty stream: calling this
        clears the set, so two independent incremental matchers over the
        same e-graph would starve each other.  (The runner creates one
        matcher per run and opens with a full sweep, which makes the
        hand-off safe.)
        """
        dirty = self._dirty
        self._dirty = set()
        return dirty

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
        * **costs quiescent** — every class's best cost is at most the price
          of each of its e-nodes and equals its witness's, which is one of
          them, i.e. no propagation work remains.
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
        if self.quiescent:
            for class_id, eclass in self._classes.items():
                for node in eclass.flat:
                    price = 1.0 + sum([self._classes[arg].cost for arg in node[1:]])
                    assert eclass.cost <= price, (
                        f"class {class_id} costs {eclass.cost} but {node} prices {price}"
                    )
                witness = self.canonical_flat(eclass.witness)
                assert witness in eclass.flat, (
                    f"witness {witness} of class {class_id} is not one of its e-nodes"
                )
                price = 1.0 + sum([self._classes[arg].cost for arg in witness[1:]])
                assert eclass.cost == price, (
                    f"class {class_id} costs {eclass.cost} but its witness prices {price}"
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
