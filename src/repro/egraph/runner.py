"""The equality-saturation loop: a batched two-phase scheduler.

Each iteration runs in two phases, egg-style:

1. **search** — every enabled rule is matched against the *frozen*, freshly
   rebuilt e-graph, collecting a list of :class:`RewriteMatch`\\ es per rule.
   Because nothing is applied during this phase, every rule sees the same
   graph and rule order cannot influence which matches exist — the engine is
   deterministic and the per-iteration work is one e-matching pass.  The
   pass goes through an :class:`~repro.egraph.pattern.IncrementalMatcher`
   over a compiled discrimination trie: only classes dirtied since the
   previous iteration (closed upward to pattern depth) are re-matched, with
   a full sweep on the first iteration and for any rule that skipped an
   iteration (e.g. while banned), so the match sets handed to the apply
   phase are always complete.
2. **apply** — the collected matches are applied in order, then the graph is
   rebuilt *once*.  Node and time limits are enforced between individual
   match applications (not once per iteration), so a single explosive
   iteration can no longer blow arbitrarily past the configured budget.

   Every deduplicable rule keeps an *applied-match ledger*: the canonical
   fingerprints (:meth:`RewriteMatch.fingerprint`) of matches that already
   executed.  A match whose fingerprint is in the ledger is skipped
   outright — no instantiation, no self-merge — because re-applying an
   identical canonical fingerprint of a syntactic rule cannot add anything
   the first application did not (the instantiated class hashconses onto
   the existing one and the merge is already in effect).  Fingerprints are
   stamped against the union-find version: they stay cached on the match
   objects while no merge happens, so a quiescent late iteration that
   rediscovers thousands of stale matches costs one set lookup per match;
   and whenever a merge *does* re-canonicalize a participating id, the
   entry can never be hit again (lookups canonicalize first) and is pruned
   from the ledger at the end of the iteration.  Skips are reported per
   iteration as :attr:`IterationReport.skipped_applications`.

A per-rule *backoff scheduler* (:class:`BackoffScheduler`) tames rules whose
match counts explode: when a rule produces more matches in one search than
its current threshold, the rule is banned for a number of iterations and its
threshold and ban length double on each offence.  Saturation is only
declared when an iteration changes nothing *and* no rule is still banned
(a banned rule might have fired).

The designs these phases replaced — the naive per-rule backtracking sweep
and an apply phase without the ledger — live on as the test oracle
``tests/saturation_oracle.py``, which the differential tests and the layer
benchmarks run side by side with this engine.

The paper's main loop (Fig. 5) wraps one of these rewrite phases together
with the arithmetic components; see :mod:`repro.core.pipeline` for that
composition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import CompiledRuleSet, IncrementalMatcher
from repro.egraph.rewrite import BaseRewrite, RewriteMatch
from repro.obs.trace import NULL_TRACER


class StopReason(Enum):
    """Why a saturation run stopped."""

    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration-limit"
    NODE_LIMIT = "node-limit"
    TIME_LIMIT = "time-limit"


@dataclass(frozen=True)
class RunnerLimits:
    """Resource limits for a saturation run (the paper's ``fuel``)."""

    max_iterations: int = 30
    max_enodes: int = 200_000
    max_seconds: float = 60.0


@dataclass(frozen=True)
class BackoffConfig:
    """Knobs of the per-rule backoff scheduler.

    ``match_limit`` is the initial per-iteration match-count threshold; a
    rule exceeding it is banned for ``ban_length`` iterations.  Both double
    every time the same rule re-offends, so a chronically explosive rule is
    applied in exponentially rarer bursts instead of dominating every
    iteration.
    """

    match_limit: int = 10_000
    ban_length: int = 5


@dataclass
class _RuleStats:
    """Mutable per-rule scheduler state."""

    times_banned: int = 0
    banned_until: int = 0  # first iteration index at which the rule may fire again


class BackoffScheduler:
    """Exponential-backoff rule scheduler (egg's ``BackoffScheduler``)."""

    def __init__(self, config: Optional[BackoffConfig] = None):
        self.config = config or BackoffConfig()
        self._stats: Dict[str, _RuleStats] = {}

    def _stats_for(self, name: str) -> _RuleStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = _RuleStats()
        return stats

    def is_banned(self, name: str, iteration: int) -> bool:
        """True when ``name`` must not search/apply during ``iteration``."""
        return self._stats_for(name).banned_until > iteration

    def next_expiry(self, iteration: int) -> Optional[int]:
        """The earliest iteration at which a currently banned rule unbans.

        None when nothing is banned during ``iteration``.
        """
        pending = [s.banned_until for s in self._stats.values() if s.banned_until > iteration]
        return min(pending) if pending else None

    def record_search(self, name: str, match_count: int, iteration: int) -> bool:
        """Record a search result; returns False when the rule is now banned.

        A False return means the caller must drop this iteration's matches
        for the rule — the threshold and the ban both double on each offence.
        """
        stats = self._stats_for(name)
        threshold = self.config.match_limit << stats.times_banned
        if match_count > threshold:
            ban = self.config.ban_length << stats.times_banned
            stats.times_banned += 1
            stats.banned_until = iteration + 1 + ban
            return False
        return True


@dataclass
class IterationReport:
    """Statistics for a single two-phase rewrite iteration."""

    index: int
    firings: Dict[str, int] = field(default_factory=dict)
    #: Matches collected during the search phase, per rule (including rules
    #: whose matches were then dropped because the scheduler banned them).
    matches: Dict[str, int] = field(default_factory=dict)
    #: Rules that sat out this iteration because of a backoff ban.
    banned: List[str] = field(default_factory=list)
    enodes_after: int = 0
    classes_after: int = 0
    seconds: float = 0.0
    search_seconds: float = 0.0
    apply_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    #: Incremental-search statistics.
    #: ``dirty_classes`` is the canonical dirty-core size this epoch,
    #: ``searched_classes`` the parent-closure actually re-matched,
    #: ``full_sweep_rules`` the rules that could not use their cache (first
    #: iteration, or just back from a backoff ban), and ``cached_matches``
    #: how many matches were served without touching the trie.
    dirty_classes: int = 0
    searched_classes: int = 0
    full_sweep_rules: List[str] = field(default_factory=list)
    cached_matches: int = 0
    trie_nodes: int = 0
    trie_programs: int = 0
    #: Best-cost slots made (one per new class) or lowered during this
    #: iteration: the work of keeping single-best extraction ready.
    analysis_updates: int = 0
    #: Apply-phase dedup counters: matches skipped because an identical
    #: canonical fingerprint already executed, and matches that actually ran
    #: (instantiated, or an applier that did not decline).  In a quiescent late
    #: iteration ``skipped_applications`` approaches the match count and
    #: ``applied_matches`` approaches zero.
    skipped_applications: int = 0
    applied_matches: int = 0
    #: Fresh e-nodes hash-consed into the graph during this iteration — the
    #: apply phase's allocation counter (0 in a fully deduplicated epoch).
    enodes_created: int = 0

    @property
    def total_firings(self) -> int:
        return sum(self.firings.values())


@dataclass
class RunReport:
    """Statistics for a whole saturation run."""

    stop_reason: StopReason
    iterations: List[IterationReport] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    @property
    def total_firings(self) -> int:
        return sum(it.total_firings for it in self.iterations)


class Runner:
    """Applies a fixed rule set to an e-graph until saturation or limits.

    ``backoff`` configures the match-count scheduler; pass
    ``BackoffConfig(match_limit=...)`` to tame explosive rules, or leave the
    default (high threshold) to effectively disable banning for small runs.
    Every :meth:`run` starts a fresh scheduler (ban windows are expressed in
    that run's iteration indices); the most recent one stays available as
    :attr:`scheduler` for post-run inspection.

    ``rules`` is a sequence of rewrites, which construction compiles into
    one discrimination trie, or an already compiled
    :class:`~repro.egraph.pattern.CompiledRuleSet`, which it uses as is (the
    pipeline compiles its default rule sets once per process).  Every
    :meth:`run` searches the trie through a fresh
    :class:`~repro.egraph.pattern.IncrementalMatcher` and skips matches
    already in the applied-match ledgers (see the module docstring).
    """

    def __init__(
        self,
        rules: Union[Sequence[BaseRewrite], CompiledRuleSet],
        limits: Optional[RunnerLimits] = None,
        *,
        backoff: Optional[BackoffConfig] = None,
        tracer=None,
    ):
        self.compiled = rules if isinstance(rules, CompiledRuleSet) else CompiledRuleSet(rules)
        self.rules = self.compiled.rules
        #: Structured tracing sink (``repro.obs.trace``); the shared
        #: ``NULL_TRACER`` singleton when tracing is off, so the hot loop
        #: pays one no-op ``with`` per phase and allocates nothing.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.limits = limits or RunnerLimits()
        self.backoff = backoff or BackoffConfig()
        self.scheduler = BackoffScheduler(self.backoff)
        #: rule name -> executed canonical fingerprints; reset per run.  A
        #: plain set for pure/syntactic rules, a fingerprint->content dict
        #: for content-keyed dynamic rules.
        self._ledgers: Dict[str, object] = {}
        self._ledger_stamp = -1
        #: The matcher of the most recent :meth:`run` (post-run inspection).
        self.matcher: Optional[IncrementalMatcher] = None

    # -- phases -------------------------------------------------------------------

    def _search_phase(
        self, egraph: EGraph, iteration: int, report: IterationReport
    ) -> List[Tuple[BaseRewrite, List[RewriteMatch]]]:
        """Match every enabled rule against the frozen e-graph.

        The whole pass is one trie search over the dirty closure; the match
        lists are complete, so the backoff scheduler sees every match.
        """
        searched: List[Tuple[BaseRewrite, List[RewriteMatch]]] = []
        enabled: List[BaseRewrite] = []
        for rule in self.rules:
            if self.scheduler.is_banned(rule.name, iteration):
                report.banned.append(rule.name)
            else:
                enabled.append(rule)
        results = self.matcher.search(egraph, {rule.name for rule in enabled})
        stats = self.matcher.last_stats
        report.dirty_classes = stats.dirty_classes
        report.searched_classes = stats.searched_classes
        report.full_sweep_rules = list(stats.full_sweep_rules)
        report.cached_matches = stats.cached_matches
        report.trie_nodes = self.compiled.stats.trie_nodes
        report.trie_programs = self.compiled.stats.programs
        for rule in enabled:
            matches = results[rule.name]
            report.matches[rule.name] = len(matches)
            if not matches:
                continue
            if not self.scheduler.record_search(rule.name, len(matches), iteration):
                report.banned.append(rule.name)
                continue
            searched.append((rule, matches))
        return searched

    def _apply_phase(
        self,
        egraph: EGraph,
        searched: List[Tuple[BaseRewrite, List[RewriteMatch]]],
        start: float,
        report: IterationReport,
    ) -> Optional[StopReason]:
        """Apply collected matches, enforcing limits between applications.

        Deduplicable rules consult their applied-match ledger first: a
        match whose canonical fingerprint already executed is skipped
        before the limit checks and the instantiation — in a
        quiescent late iteration the whole phase degenerates to one set
        lookup per match (the fingerprints themselves are cached on the
        match objects while no union happens).
        """
        max_enodes = self.limits.max_enodes
        max_seconds = self.limits.max_seconds
        union_find = egraph._union_find
        # The union version only moves inside apply_match_checked, so the
        # loop tracks it in a local instead of re-reading the attribute
        # chain per match — the skip fast path below is two slot reads and
        # an integer compare.
        union_version = union_find.version
        stop: Optional[StopReason] = None
        for rule, matches in searched:
            ledger = self._ledgers.get(rule.name)
            content_key = getattr(rule, "content_key", None) if ledger is not None else None
            apply_checked = rule.apply_match_checked
            fired = skipped = applied = 0
            for match in matches:
                content = None
                if ledger is not None:
                    # Fast path: the match was confirmed in the ledger and no
                    # union has happened since.  (The incremental matcher
                    # serves the same objects every epoch, so a quiescent
                    # tail iteration takes this branch for nearly every
                    # match.)  Sound for content-keyed rules too: class
                    # contents only ever change through unions, so an
                    # unchanged union version means an unchanged content key.
                    if match.skip_stamp == union_version:
                        skipped += 1
                        continue
                    fingerprint = match.fingerprint(egraph)
                    if content_key is not None:
                        # Content-keyed ledger (a dict): skip only while the
                        # rule's extra inputs hash the same as when the match
                        # was last examined.
                        content = content_key(egraph, match.class_id, match.substitution)
                        if ledger.get(fingerprint) == content:
                            match.skip_stamp = union_version
                            skipped += 1
                            continue
                    elif fingerprint in ledger:
                        match.skip_stamp = union_version
                        skipped += 1
                        continue
                if egraph.total_enodes > max_enodes:
                    stop = StopReason.NODE_LIMIT
                    break
                if time.perf_counter() - start > max_seconds:
                    stop = StopReason.TIME_LIMIT
                    break
                changed, executed = apply_checked(egraph, match)
                if changed:
                    union_version = union_find.version
                if executed:
                    applied += 1
                if content_key is not None:
                    # Every outcome is ledgered — the content key captures
                    # all applier-visible inputs, so even a None outcome
                    # is stable until the key changes.  (A changed
                    # application may itself move the walked contents; the
                    # stale stored key then forces one re-examination next
                    # epoch, which converges.)
                    ledger[fingerprint] = content
                    if not changed:
                        match.skip_stamp = union_version
                elif executed and ledger is not None:
                    ledger.add(fingerprint)
                    if not changed:
                        match.skip_stamp = union_version
                if changed:
                    fired += 1
            if fired:
                report.firings[rule.name] = report.firings.get(rule.name, 0) + fired
            report.skipped_applications += skipped
            report.applied_matches += applied
            if stop is not None:
                return stop
        return None

    # -- dedup ledger maintenance -------------------------------------------------

    @staticmethod
    def _fingerprint_canonical(parents: List[int], fingerprint) -> bool:
        """True while every id the fingerprint binds is still canonical."""
        class_id, bindings = fingerprint
        if parents[class_id] != class_id:
            return False
        for _name, bound in bindings:
            if parents[bound] != bound:
                return False
        return True

    def _prune_ledgers(self, egraph: EGraph) -> None:
        """Drop ledger entries invalidated by merges since the last prune.

        An entry is invalidated exactly when a merge re-canonicalized one of
        its participating ids: lookups canonicalize the incoming match
        first, so such an entry can never be hit again and only wastes
        memory.  The union-find version is the epoch stamp — while it is
        unchanged no id's representative moved and the sweep is skipped
        entirely, which makes quiescent iterations free.  A sweep is
        O(ledger), so it additionally waits until the unions accumulated
        since the last sweep are at least a quarter of the ledger size —
        amortized O(1) bookkeeping per union, with staleness bounded to a
        constant fraction of the live entries.
        """
        if not self._ledgers:
            return
        stamp = egraph.union_version
        unions = stamp - self._ledger_stamp
        if unions <= 0:
            return
        total = sum(len(ledger) for ledger in self._ledgers.values())
        if unions * 4 < total:
            return
        self._ledger_stamp = stamp
        parents = egraph._union_find.parents
        canonical = self._fingerprint_canonical
        for name, ledger in self._ledgers.items():
            if isinstance(ledger, dict):
                self._ledgers[name] = {
                    fp: content for fp, content in ledger.items() if canonical(parents, fp)
                }
            else:
                self._ledgers[name] = {fp for fp in ledger if canonical(parents, fp)}

    # -- driver -------------------------------------------------------------------

    def run(self, egraph: EGraph) -> RunReport:
        """Run equality saturation; the e-graph is mutated in place."""
        start = time.perf_counter()
        report = RunReport(stop_reason=StopReason.ITERATION_LIMIT)
        self.scheduler = BackoffScheduler(self.backoff)
        # A fresh matcher per run: its first epoch is a full sweep, which
        # also makes it safe to take over the graph's dirty stream from any
        # previous consumer (mutations between runs are then irrelevant).
        self.matcher = IncrementalMatcher(self.compiled)
        # Fresh ledgers per run: fingerprints embed this graph's class ids.
        # Content-keyed rules get a dict (fingerprint -> content key);
        # everything else a plain set of executed fingerprints.
        self._ledgers = {
            rule.name: ({} if getattr(rule, "content_key", None) is not None else set())
            for rule in self.rules
            if rule.deduplicable
        }
        egraph.rebuild()  # searches must always see canonical ids
        self._ledger_stamp = egraph.union_version

        iteration = 0
        tracer = self.tracer
        while iteration < self.limits.max_iterations:
            with tracer.span("iteration") as it_span:
                iteration_start = time.perf_counter()
                version_before = egraph.version
                updates_before = egraph.analysis_updates
                created_before = egraph.enodes_created
                it_report = IterationReport(index=iteration)

                with tracer.span("search"):
                    searched = self._search_phase(egraph, iteration, it_report)
                it_report.search_seconds = time.perf_counter() - iteration_start

                apply_start = time.perf_counter()
                with tracer.span("apply"):
                    stop = self._apply_phase(egraph, searched, start, it_report)
                it_report.apply_seconds = time.perf_counter() - apply_start

                rebuild_start = time.perf_counter()
                with tracer.span("rebuild"):
                    egraph.rebuild()
                    self._prune_ledgers(egraph)
                it_report.rebuild_seconds = time.perf_counter() - rebuild_start

                it_report.enodes_created = egraph.enodes_created - created_before
                it_report.enodes_after = egraph.total_enodes
                it_report.classes_after = len(egraph)
                it_report.analysis_updates = egraph.analysis_updates - updates_before
                it_report.seconds = time.perf_counter() - iteration_start
                report.iterations.append(it_report)
                if it_span is not None:
                    it_span.update(
                        {
                            "index": it_report.index,
                            "matches": sum(it_report.matches.values()),
                            "firings": sum(it_report.firings.values()),
                            "banned": len(it_report.banned),
                            "applied_matches": it_report.applied_matches,
                            "skipped_applications": it_report.skipped_applications,
                            "enodes_created": it_report.enodes_created,
                            "enodes_after": it_report.enodes_after,
                            "classes_after": it_report.classes_after,
                            "searched_classes": it_report.searched_classes,
                            "cached_matches": it_report.cached_matches,
                            "analysis_updates": it_report.analysis_updates,
                        }
                    )

            if stop is not None:
                report.stop_reason = stop
                break
            if egraph.version == version_before:
                # Saturation needs an unchanged graph AND a full hearing: a
                # rule banned during this iteration (even one whose ban
                # expires next iteration) may still have matches to fire.
                expiry = self.scheduler.next_expiry(iteration)
                if expiry is None:
                    report.stop_reason = StopReason.SATURATED
                    break
                if time.perf_counter() - start > self.limits.max_seconds:
                    report.stop_reason = StopReason.TIME_LIMIT
                    break
                # Nothing can change until a ban lapses; re-searching the
                # unchanged graph every iteration until then would produce
                # identical results, so fast-forward to the first expiry
                # (iteration indices in the report may therefore skip).
                iteration = max(iteration + 1, expiry)
            else:
                # Budgets re-checked at iteration end: the per-match node
                # check runs *before* each application (the final match can
                # land just over), and the per-match time check never ran if
                # every match was skipped by the ledger.  Catching both
                # here saves a full search phase over an over-budget graph.
                if egraph.total_enodes > self.limits.max_enodes:
                    report.stop_reason = StopReason.NODE_LIMIT
                    break
                if time.perf_counter() - start > self.limits.max_seconds:
                    report.stop_reason = StopReason.TIME_LIMIT
                    break
                iteration += 1

        report.seconds = time.perf_counter() - start
        return report
