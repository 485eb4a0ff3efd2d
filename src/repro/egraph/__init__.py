"""Equality-saturation engine.

The paper implements its own e-graph in OCaml (pre-dating the egg library
that grew out of this line of work); this package is our Python equivalent.
It provides:

* :mod:`repro.egraph.unionfind` — a union-find over e-class ids (with a
  union-version counter and an exposed parent array for inlined finds);
* :mod:`repro.egraph.symbols` — the per-e-graph operator interner backing
  the flat ``(op_id, *arg_ids)`` node representation;
* :mod:`repro.egraph.egraph` — hash-consed e-nodes, e-classes, congruence
  closure with deferred rebuilding, term insertion/lookup helpers, and
  the one e-class analysis, built in: each class's best AST-size cost and
  its witness e-node, maintained through every add, merge and rebuild;
* :mod:`repro.egraph.pattern` — pattern terms with ``?x`` variables and the
  compiled discrimination-trie matcher with incremental dirty-class search;
* :mod:`repro.egraph.rewrite` — rewrite rules (pattern → pattern, or pattern
  → programmatic applier) in the style of Section 3.2;
* :mod:`repro.egraph.runner` — the batched two-phase saturation loop with a
  per-rule backoff scheduler and fuel / node / time limits enforced inside
  the apply phase;
* :mod:`repro.egraph.extract` — single-best extraction as a walk over
  those witnesses, and lazy k-best (Eppstein-style) candidate heaps
  enumerating only realizable, acyclic derivations (Section 5.1).

Each piece has one implementation.  The designs the engine replaced (the
naive backtracking matcher, the apply phase without a ledger, the post-hoc
cost fixpoint) are test oracles under ``tests/``, not options here.
"""

from repro.egraph.unionfind import UnionFind
from repro.egraph.symbols import SymbolTable
from repro.egraph.egraph import EGraph, ENode, EClass
from repro.egraph.pattern import (
    CompiledRuleSet,
    IncrementalMatcher,
    Pattern,
    PatternVar,
    SearchStats,
    TrieStats,
    parse_pattern,
    Substitution,
)
from repro.egraph.rewrite import Rewrite, RewriteMatch, rewrite, DynamicRewrite
from repro.egraph.runner import (
    BackoffConfig,
    BackoffScheduler,
    Runner,
    RunnerLimits,
    RunReport,
    StopReason,
)
from repro.egraph.extract import (
    ExtractionError,
    Extractor,
    RankedTerm,
    TopKExtractor,
    ast_size_cost,
)

__all__ = [
    "UnionFind",
    "SymbolTable",
    "EGraph",
    "ENode",
    "EClass",
    "Pattern",
    "PatternVar",
    "parse_pattern",
    "Substitution",
    "CompiledRuleSet",
    "IncrementalMatcher",
    "SearchStats",
    "TrieStats",
    "Rewrite",
    "RewriteMatch",
    "rewrite",
    "DynamicRewrite",
    "BackoffConfig",
    "BackoffScheduler",
    "Runner",
    "RunnerLimits",
    "RunReport",
    "StopReason",
    "ExtractionError",
    "Extractor",
    "RankedTerm",
    "TopKExtractor",
    "ast_size_cost",
]
