"""Patterns and e-matching.

Rewrite rules are written as pattern pairs; a pattern is a term whose leaves
may be *pattern variables*, written ``?x`` in the s-expression syntax.
E-matching finds, for every e-class, all substitutions under which the
pattern is represented in that class (paper Section 3.1: "whenever an eclass
c1 represents an expression matching pattern a under substitution phi ...").

Matching is compiled (:class:`CompiledRuleSet`): every rule pattern is
compiled once into a short program of register-machine instructions
(*descend* an e-node binding its argument classes into fresh registers,
*check* that a class contains a leaf operator, *compare* two registers bound
to the same pattern variable), and the programs of all rules are inserted
into a shared discrimination trie so patterns with a common prefix — in
particular a common top symbol — are matched in one pass.

**The dirty-epoch protocol.**  :class:`IncrementalMatcher` wraps a
:class:`CompiledRuleSet` with a per-rule match cache keyed by canonical
e-class.  Each call to :meth:`IncrementalMatcher.search` opens a new *search
epoch*: it consumes the e-graph's dirty set (:meth:`EGraph.take_dirty` —
classes created or merged since the previous epoch), closes it upward over
parent pointers to the compiled patterns' maximum depth (a new match rooted
at a clean class can only involve a changed class at most ``depth - 1``
argument hops below it), re-matches exactly the closure, and serves every
other class from the cache.  A rule that skipped an epoch (e.g. while
banned by the runner's backoff scheduler) cannot trust its cache — the
dirty sets of the missed epochs are gone — so it falls back to a full
sweep, as does every rule on epoch 0.  The union of cached and re-matched
results is therefore always the *complete* match set, identical to what a
full sweep returns on the same graph.  ``tests/test_search_differential.py``
locks that down against the naive top-down backtracking matcher, which
lives on as a test oracle in ``tests/saturation_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.egraph.egraph import EGraph, ENode, Operator
from repro.lang.sexp import parse_sexp

#: A substitution maps pattern-variable names (without the ``?``) to e-class ids.
Substitution = Dict[str, int]


@dataclass(frozen=True)
class PatternVar:
    """A pattern variable, e.g. ``?x``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Pattern:
    """A pattern node: either a variable or an operator applied to sub-patterns."""

    op: Union[str, int, float, PatternVar]
    children: Tuple["Pattern", ...] = ()

    @staticmethod
    def from_sexp(sexp) -> "Pattern":
        if isinstance(sexp, list):
            if not sexp:
                raise ValueError("empty pattern")
            head = sexp[0]
            if isinstance(head, str) and head.startswith("?"):
                raise ValueError("pattern variables cannot take arguments")
            return Pattern(head, tuple(Pattern.from_sexp(c) for c in sexp[1:]))
        if isinstance(sexp, str) and sexp.startswith("?"):
            return Pattern(PatternVar(sexp[1:]))
        return Pattern(sexp)

    @property
    def is_var(self) -> bool:
        return isinstance(self.op, PatternVar)

    def __str__(self) -> str:
        if not self.children:
            return str(self.op)
        args = " ".join(str(c) for c in self.children)
        return f"({self.op} {args})"


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern from s-expression text, e.g. ``(Union ?a ?b)``."""
    return Pattern.from_sexp(parse_sexp(text))


def instantiate(egraph: EGraph, pattern: Pattern, substitution: Substitution) -> int:
    """Add the instantiation of ``pattern`` under ``substitution`` to the e-graph.

    Pattern variables are looked up in the substitution (their e-class ids are
    reused directly); concrete pattern nodes become fresh e-nodes.
    """
    if isinstance(pattern.op, PatternVar):
        try:
            return egraph.find(substitution[pattern.op.name])
        except KeyError as exc:
            raise KeyError(f"unbound pattern variable ?{pattern.op.name}") from exc
    args = tuple(instantiate(egraph, child, substitution) for child in pattern.children)
    return egraph.add_enode(ENode(pattern.op, args))


# ---------------------------------------------------------------------------
# E-matching: instruction programs in a shared discrimination trie
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Descend:
    """Enumerate e-nodes ``(op arg0 ... argN)`` in the class held by ``reg``.

    For each such e-node the argument classes are bound (canonicalized) into
    registers ``base .. base + arity - 1`` and matching continues — this is
    the matcher's only backtracking point.
    """

    reg: int
    op: Operator
    arity: int
    base: int


@dataclass(frozen=True)
class Check:
    """Require that the class held by ``reg`` contains the leaf e-node ``op``."""

    reg: int
    op: Operator


@dataclass(frozen=True)
class Compare:
    """Require ``reg`` and ``prev`` to hold the same class (repeated variable)."""

    reg: int
    prev: int


Instruction = Union[Descend, Check, Compare]

#: A yield entry: (rule index, ((var name, register), ...)).
_Yield = Tuple[int, Tuple[Tuple[str, int], ...]]


def compile_pattern(pattern: Pattern) -> Tuple[Tuple[Instruction, ...], Tuple[Tuple[str, int], ...]]:
    """Compile a pattern into an instruction program plus a variable map.

    Register 0 holds the candidate root class; registers are allocated in a
    deterministic preorder walk, so two patterns sharing a structural prefix
    compile to programs sharing an instruction prefix — the property the
    discrimination trie exploits.  Variable names never appear in the
    instructions (only in the final variable map), so alpha-equivalent
    prefixes of different rules still share.
    """
    instructions: List[Instruction] = []
    var_regs: Dict[str, int] = {}
    next_reg = 1
    # Preorder from an explicit stack: children are pushed last-first, so
    # each subtree is compiled whole before its right sibling.
    stack: List[Tuple[Pattern, int]] = [(pattern, 0)]
    while stack:
        p, reg = stack.pop()
        if isinstance(p.op, PatternVar):
            previous = var_regs.get(p.op.name)
            if previous is None:
                var_regs[p.op.name] = reg
            else:
                instructions.append(Compare(reg, previous))
            continue
        if not p.children:
            instructions.append(Check(reg, p.op))
            continue
        base = next_reg
        next_reg += len(p.children)
        instructions.append(Descend(reg, p.op, len(p.children), base))
        for offset in reversed(range(len(p.children))):
            stack.append((p.children[offset], base + offset))
    return tuple(instructions), tuple(sorted(var_regs.items()))


def pattern_depth(pattern: Pattern) -> int:
    """Depth of a pattern (a bare variable or leaf has depth 1)."""
    return 1 + max((pattern_depth(c) for c in pattern.children), default=0)


class _SearchContext:
    """Per-search state threaded through trie execution (one per search call).

    ``resolved`` maps the rule set's operator slots to this e-graph's
    interned op ids (``None`` for operators the graph has never seen) — one
    list build per search, then every Descend/Check step is a list index.
    """

    __slots__ = ("flat_nodes", "resolved", "parents", "enabled", "out", "match_type")

    def __init__(self, egraph, slot_ops, enabled, out, match_type) -> None:
        self.flat_nodes = egraph.flat_nodes
        get = egraph.symbols.get
        self.resolved: List[Optional[int]] = [get(op) for op in slot_ops]
        self.parents = egraph._union_find.parents
        self.enabled = enabled
        self.out = out
        self.match_type = match_type


class _TrieNode:
    """One node of the shared-program trie; edges are labelled by instructions."""

    __slots__ = ("children", "edges", "yields", "rules")

    def __init__(self) -> None:
        self.children: Dict[Instruction, "_TrieNode"] = {}
        #: The same edges as ``children``, flattened for execution:
        #: ``(instruction, child, op_slot)`` where ``op_slot`` indexes the
        #: rule set's distinct-operator table (-1 for Compare edges).  The
        #: per-search resolution array turns a slot into the e-graph's
        #: interned op id with one list index — no string hashing inside
        #: the trie walk.
        self.edges: List[Tuple[Instruction, "_TrieNode", int]] = []
        self.yields: List[_Yield] = []
        #: Indices of every rule with a program passing through this node —
        #: used to prune whole subtrees when the caller restricts the search
        #: to a subset of rules (e.g. while others are banned).
        self.rules: Set[int] = set()


@dataclass(frozen=True)
class TrieStats:
    """Size/sharing statistics of a compiled rule set."""

    programs: int            #: compiled programs, one per rule
    instructions: int        #: total instructions across all programs
    trie_nodes: int          #: interior+leaf nodes actually allocated
    shared_instructions: int #: instructions saved by prefix sharing
    max_depth: int           #: deepest compiled pattern (drives dirty closure)


class CompiledRuleSet:
    """All rule patterns of a rule set compiled into one discrimination trie.

    Construction compiles every rule's left-hand side into an instruction
    program, and inserts the programs into a trie whose root
    edges are keyed by the pattern's top symbol.  Searching a class then
    dispatches once on the class's operators instead of once per rule.

    The object is immutable with respect to the e-graph: it holds no graph
    state, so one compiled set can be shared by many runs.  The pipeline
    compiles each default rule-category tuple once per process and shares
    it between every :func:`~repro.core.pipeline.synthesize` call; an
    explicit ``synthesize(..., rules=)`` is compiled per call.  Incremental
    state lives in :class:`IncrementalMatcher`.
    """

    def __init__(self, rules: Sequence) -> None:
        self.rules = list(rules)
        self.rule_names: List[str] = [rule.name for rule in self.rules]
        if len(set(self.rule_names)) != len(self.rule_names):
            raise ValueError("rule names must be unique to compile a rule set")
        self._root = _TrieNode()
        #: Root trie edges grouped by the pattern's top symbol.
        self._root_edges_by_op: Dict[Operator, List[Tuple[Instruction, _TrieNode, int]]] = {}
        #: Distinct instruction operators, slot-indexed (see _TrieNode.edges).
        self._slot_ops: List[Operator] = []
        self._op_slots: Dict[Operator, int] = {}
        #: True when some pattern is a bare variable (matches every class).
        self._has_var_roots = False
        total_instructions = 0
        max_depth = 1
        for index, rule in enumerate(self.rules):
            instructions, varmap = compile_pattern(rule.lhs)
            self._insert(instructions, (index, varmap))
            total_instructions += len(instructions)
            max_depth = max(max_depth, pattern_depth(rule.lhs))
        self.max_depth = max_depth
        #: Parent hops needed to cover every class whose match set a dirty
        #: class can influence.
        self.closure_steps = max(0, max_depth - 1)
        trie_nodes = self._count_nodes(self._root)
        self.stats = TrieStats(
            programs=len(self.rules),
            instructions=total_instructions,
            trie_nodes=trie_nodes,
            shared_instructions=total_instructions - (trie_nodes - 1),
            max_depth=max_depth,
        )

    # -- construction helpers ---------------------------------------------------

    def _op_slot(self, instruction: Instruction) -> int:
        """The resolution-table slot for an instruction (-1 for Compare)."""
        if isinstance(instruction, Compare):
            return -1
        slot = self._op_slots.get(instruction.op)
        if slot is None:
            slot = self._op_slots[instruction.op] = len(self._slot_ops)
            self._slot_ops.append(instruction.op)
        return slot

    def _insert(self, instructions: Tuple[Instruction, ...], entry: _Yield) -> None:
        node = self._root
        node.rules.add(entry[0])
        for position, instruction in enumerate(instructions):
            child = node.children.get(instruction)
            if child is None:
                child = node.children[instruction] = _TrieNode()
                edge = (instruction, child, self._op_slot(instruction))
                node.edges.append(edge)
                if position == 0:
                    self._root_edges_by_op.setdefault(instruction.op, []).append(edge)
            child.rules.add(entry[0])
            node = child
        if node is self._root:
            self._has_var_roots = True
        node.yields.append(entry)

    def _count_nodes(self, node: _TrieNode) -> int:
        return 1 + sum(self._count_nodes(child) for child in node.children.values())

    # -- searching --------------------------------------------------------------

    def search_classes(
        self,
        egraph: EGraph,
        class_ids: Optional[Iterable[int]] = None,
        enabled: Optional[Set[str]] = None,
    ) -> Dict[str, List]:
        """Match every compiled pattern against a set of candidate classes.

        ``class_ids`` restricts the search (``None`` means the whole graph,
        pre-filtered through the operator index); ``enabled`` restricts it to
        a subset of rule names, pruning shared trie branches no enabled rule
        passes through.  Returns ``{rule name: [RewriteMatch, ...]}`` with
        matches ordered by canonical class id; every rule searched gets an
        entry, even when empty.

        The trie executes over the e-graph's *flat* node representation:
        instruction operators are resolved to the graph's interned ids once
        per search, the node loops compare integers, and argument ids are
        canonicalized with an inlined path-compressed find (see
        :mod:`repro.egraph.symbols` and the e-graph module docstring).
        """
        from repro.egraph.rewrite import RewriteMatch  # local: avoids an import cycle

        if enabled is None:
            enabled_indices: Optional[Set[int]] = None
        else:
            enabled_indices = {i for i, n in enumerate(self.rule_names) if n in enabled}
        if class_ids is None:
            candidates: Set[int] = set()
            if self._has_var_roots:
                candidates.update(egraph.find(eclass.id) for eclass in egraph.classes())
            else:
                for op in self._root_edges_by_op:
                    candidates.update(egraph.classes_with_op(op))
        else:
            candidates = {egraph.find(class_id) for class_id in class_ids}
        out: Dict[int, List] = {
            i: [] for i in range(len(self.rules))
            if enabled_indices is None or i in enabled_indices
        }
        ctx = _SearchContext(egraph, self._slot_ops, enabled_indices, out, RewriteMatch)
        symbols = egraph.symbols
        # Root trie edges re-keyed by this graph's interned op ids; an
        # operator the graph has never interned cannot match anywhere.
        root_edges: Dict[int, List] = {}
        for op, edges in self._root_edges_by_op.items():
            op_id = symbols.get(op)
            if op_id is not None:
                root_edges[op_id] = edges
        for class_id in sorted(candidates):
            self._match_class(ctx, class_id, root_edges)
        return {self.rule_names[index]: matches for index, matches in out.items()}

    def _match_class(self, ctx, class_id, root_edges) -> None:
        enabled = ctx.enabled
        for entry in self._root.yields:  # bare-variable patterns match any class
            if enabled is None or entry[0] in enabled:
                self._emit(entry, [class_id], class_id, ctx.out, ctx.match_type)
        regs = [class_id]
        for op_id in {node[0] for node in ctx.flat_nodes(class_id)}:
            edges = root_edges.get(op_id)
            if edges is not None:
                for instruction, child, slot in edges:
                    self._step(ctx, instruction, child, slot, regs, class_id)

    def _emit(self, entry, regs, class_id, out, match_type) -> None:
        index, varmap = entry
        out[index].append(match_type(class_id, {name: regs[reg] for name, reg in varmap}))

    def _execute(self, ctx, node, regs, class_id) -> None:
        enabled = ctx.enabled
        for entry in node.yields:
            if enabled is None or entry[0] in enabled:
                self._emit(entry, regs, class_id, ctx.out, ctx.match_type)
        for instruction, child, slot in node.edges:
            self._step(ctx, instruction, child, slot, regs, class_id)

    def _step(self, ctx, instruction, child, slot, regs, class_id) -> None:
        if ctx.enabled is not None and not (child.rules & ctx.enabled):
            return
        kind = type(instruction)
        if kind is Descend:
            op_id = ctx.resolved[slot]
            if op_id is None:
                return
            width = instruction.arity + 1
            parents = ctx.parents
            for node in ctx.flat_nodes(regs[instruction.reg]):
                if node[0] == op_id and len(node) == width:
                    # Bind argument classes, canonicalized with an inlined
                    # path-compressed find (this is the matcher's innermost
                    # loop; a find() call per argument dominated its profile).
                    new_regs = list(regs)
                    for arg in node[1:]:
                        root = arg
                        while parents[root] != root:
                            root = parents[root]
                        while parents[arg] != root:
                            parents[arg], arg = root, parents[arg]
                        new_regs.append(root)
                    self._execute(ctx, child, new_regs, class_id)
        elif kind is Check:
            op_id = ctx.resolved[slot]
            if op_id is None:
                return
            for node in ctx.flat_nodes(regs[instruction.reg]):
                if len(node) == 1 and node[0] == op_id:
                    self._execute(ctx, child, regs, class_id)
                    break
        else:  # Compare
            if regs[instruction.reg] == regs[instruction.prev]:
                self._execute(ctx, child, regs, class_id)


@dataclass
class SearchStats:
    """What one :meth:`IncrementalMatcher.search` epoch actually did."""

    epoch: int = 0
    dirty_classes: int = 0       #: canonical classes dirtied since last epoch
    searched_classes: int = 0    #: dirty closure actually re-matched
    full_sweep_rules: List[str] = field(default_factory=list)
    cached_matches: int = 0      #: matches served from the cache
    recomputed_matches: int = 0  #: matches produced by trie execution


class IncrementalMatcher:
    """Epoch-cached incremental e-matching over one e-graph.

    See the module docstring for the dirty-epoch protocol.  The matcher owns
    the e-graph's dirty stream from its first :meth:`search` on: it calls
    :meth:`EGraph.take_dirty` every epoch, so at most one matcher may drive
    a given e-graph at a time.
    """

    def __init__(self, compiled: CompiledRuleSet) -> None:
        self.compiled = compiled
        self._epoch = 0
        self._rule_epoch: Dict[str, int] = {}
        #: rule name -> canonical class id -> cached matches in that class.
        self._cache: Dict[str, Dict[int, List]] = {name: {} for name in compiled.rule_names}
        self.last_stats = SearchStats()

    # -- dirty closure ----------------------------------------------------------

    def _dirty_closure(self, egraph: EGraph, dirty: Set[int]) -> Set[int]:
        """Close the dirty set upward over parents to the patterns' depth."""
        closure = set(dirty)
        frontier = dirty
        find = egraph.find
        for _ in range(self.compiled.closure_steps):
            if not frontier:
                break
            next_frontier: Set[int] = set()
            for class_id in frontier:
                for _parent_node, parent_id in egraph.eclass(class_id).parents:
                    parent = find(parent_id)
                    if parent not in closure:
                        closure.add(parent)
                        next_frontier.add(parent)
            frontier = next_frontier
        return closure

    # -- searching --------------------------------------------------------------

    def search(
        self, egraph: EGraph, enabled: Optional[Set[str]] = None
    ) -> Dict[str, List]:
        """Complete match sets for the enabled rules on the current graph.

        Equivalent to a full :meth:`CompiledRuleSet.search_classes` sweep,
        but clean classes are served from the previous epoch's cache.
        """
        self._epoch += 1
        dirty = egraph.dirty_classes()
        raw_dirty = egraph.take_dirty_raw()
        names = (
            list(self.compiled.rule_names)
            if enabled is None
            else [n for n in self.compiled.rule_names if n in enabled]
        )
        incremental = [n for n in names if self._rule_epoch.get(n) == self._epoch - 1]
        full = [n for n in names if self._rule_epoch.get(n) != self._epoch - 1]
        stats = SearchStats(epoch=self._epoch, dirty_classes=len(dirty))
        stats.full_sweep_rules = list(full)

        closure: Set[int] = set()
        if incremental:
            closure = self._dirty_closure(egraph, dirty)
            stats.searched_classes = len(closure)
            # Evict exactly the cache keys that can be stale: the closure
            # (whose matches are recomputed below) plus the raw dirty ids —
            # which include every root merged away since the last epoch, so
            # keys that lost canonicity are hit directly instead of probing
            # every cached class with find().
            stale = raw_dirty | closure
            for name in incremental:
                cache = self._cache[name]
                for class_id in stale:
                    cache.pop(class_id, None)
            if closure:
                recomputed = self.compiled.search_classes(
                    egraph, class_ids=closure, enabled=set(incremental)
                )
                for name, matches in recomputed.items():
                    cache = self._cache[name]
                    for match in matches:
                        cache.setdefault(match.class_id, []).append(match)
                    stats.recomputed_matches += len(matches)
        if full:
            swept = self.compiled.search_classes(egraph, enabled=set(full))
            for name, matches in swept.items():
                grouped: Dict[int, List] = {}
                for match in matches:
                    grouped.setdefault(match.class_id, []).append(match)
                self._cache[name] = grouped
                stats.recomputed_matches += len(matches)

        results: Dict[str, List] = {}
        for name in names:
            self._rule_epoch[name] = self._epoch
            cache = self._cache[name]
            flat: List = []
            for class_id in sorted(cache):
                flat.extend(cache[class_id])
            results[name] = flat
        stats.cached_matches = sum(len(m) for m in results.values()) - stats.recomputed_matches
        self.last_stats = stats
        return results
