"""Rewrite rules over e-graphs.

A rewrite ``lhs { rhs`` searches the e-graph for matches of ``lhs`` and, for
every match, adds the instantiation of ``rhs`` and merges it into the matched
e-class (paper Section 3.1).  Because the e-graph is non-destructive, both the
old and the new expressions remain available, which is what mitigates phase
ordering.

A rule does not search by itself: the runner matches every rule's left-hand
side in one pass through :class:`~repro.egraph.pattern.CompiledRuleSet`, and
a rule applies one match at a time (:meth:`BaseRewrite.apply_match_checked`).
Two flavours are provided:

* :class:`Rewrite` — purely syntactic ``Pattern -> Pattern`` rules, searched
  and applied left to right only; a rule needed in both directions is
  written as two rules;
* :class:`DynamicRewrite` — pattern on the left, arbitrary *applier* function
  on the right.  The applier receives the e-graph, the matched class, and the
  substitution and returns the id of a class to merge with (or ``None``).
  The affine reordering/collapsing rules that must *compute* new vectors
  (Fig. 8b/8c) are dynamic rewrites, and any condition a rule needs — a
  scale factor that must be non-zero before dividing, say — is checked by
  its applier, which returns ``None`` to decline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.egraph.egraph import EGraph
from repro.egraph.pattern import Pattern, Substitution, instantiate, parse_pattern

#: A fingerprint: (canonical class id, ((var, canonical id), ...)).
Fingerprint = Tuple[int, Tuple[Tuple[str, int], ...]]

#: An applier receives (egraph, eclass id, substitution) and returns the id of
#: the newly constructed equivalent class, or None to skip.
Applier = Callable[[EGraph, int, Substitution], Optional[int]]


@dataclass(slots=True)
class RewriteMatch:
    """One firing opportunity discovered during the search phase.

    :meth:`fingerprint` projects the match onto canonical ids — the key of
    the runner's applied-match ledger.  Two matches with equal fingerprints
    denote the same rewrite opportunity on the current graph, so a
    syntactic rule that already fired one of them can skip the other
    without instantiating anything.  The fingerprint is cached on the match
    object (the incremental matcher serves the *same* objects from its
    cache every epoch) and revalidated on each call.
    """

    class_id: int
    substitution: Substitution
    #: Fingerprint cache (see above); not part of the match's identity.
    _fingerprint: Optional[Fingerprint] = field(
        default=None, repr=False, compare=False
    )
    #: Union version at which this match was last confirmed present in its
    #: rule's applied ledger.  While no union has happened since, the match
    #: is skippable on a single integer compare — no fingerprint, no set
    #: probe.  Maintained by the runner's apply phase.
    skip_stamp: int = field(default=-1, repr=False, compare=False)

    def fingerprint(self, egraph: EGraph) -> Fingerprint:
        """This match projected onto canonical ids (cached on the match).

        Binding order follows the substitution's (deterministic) insertion
        order rather than a per-call sort: every match of a rule is built
        from the compiled matcher's variable map for that rule, so equal
        opportunities always serialize their bindings identically.

        Revalidation is allocation-free: a cached fingerprint is exact as
        long as every id it binds is still its own union-find root (unions
        only ever re-parent roots, so an id that canonicalized to ``r``
        keeps canonicalizing to ``r`` while ``r`` stays a root).  Merges in
        unrelated parts of the graph therefore do not force a recompute.
        """
        uf = egraph._union_find
        fp = self._fingerprint
        if fp is not None:
            parents = uf.parents
            if parents[fp[0]] == fp[0]:
                for _name, bound in fp[1]:
                    if parents[bound] != bound:
                        break
                else:
                    return fp
        find = uf.find
        fp = (
            find(self.class_id),
            tuple((name, find(cid)) for name, cid in self.substitution.items()),
        )
        self._fingerprint = fp
        return fp


class BaseRewrite:
    """Shared apply machinery for syntactic and dynamic rewrites."""

    name: str
    lhs: Pattern

    #: True when applying a match is a pure function of its *canonical
    #: fingerprint* — re-applying an identical fingerprint can never add
    #: information the first application did not.  The runner's apply-phase
    #: dedup ledger only ever skips matches of deduplicable rules.
    #: Syntactic rewrites qualify (``instantiate`` reads nothing but the
    #: substitution's ids); dynamic rewrites whose applier inspects class
    #: *contents* do not, because a class can gain e-nodes without its id
    #: changing.  Conservative default: off.
    deduplicable = False

    def apply_match_checked(self, egraph: EGraph, match: RewriteMatch) -> Tuple[bool, bool]:
        """Apply to one match; returns ``(changed, executed)``.

        ``changed`` is True when the e-graph changed; ``executed`` is True
        when the rewrite actually ran — i.e. a dynamic applier did not
        decline it by returning ``None``.  Only executed matches may enter
        the dedup ledger: a declined match must be re-examined next epoch
        because the applier read mutable e-graph state.
        """
        raise NotImplementedError


@dataclass
class Rewrite(BaseRewrite):
    """A syntactic rewrite ``lhs { rhs``."""

    name: str
    lhs: Pattern
    rhs: Pattern

    # Instantiating a pattern reads nothing but the substitution's class
    # ids, so re-applying an identical canonical fingerprint is always a
    # semantic no-op (the instantiated class hashconses onto the one the
    # first application built and the merge is already in effect).
    deduplicable = True

    def apply_match_checked(self, egraph: EGraph, match: RewriteMatch) -> Tuple[bool, bool]:
        before = egraph.version
        new_id = instantiate(egraph, self.rhs, match.substitution)
        egraph.merge(match.class_id, new_id)
        return egraph.version != before, True

    def __str__(self) -> str:
        return f"{self.name}: {self.lhs} => {self.rhs}"


@dataclass
class DynamicRewrite(BaseRewrite):
    """A rewrite whose right-hand side is computed by an applier function.

    ``pure`` declares that a *successful* applier outcome is a stable
    function of the canonical ids the match binds: once the applier
    returned a class for a given canonical substitution, re-running it can
    only ever reproduce the same (already merged) equivalence.  The affine
    arithmetic rules qualify — they read the numeric *values* of bound
    literal classes, which sound merges never change.  Rules whose applier
    enumerates class *structure* (the chain-folding rule walks whatever
    ``Union`` e-nodes currently exist) are impure: a later epoch can
    genuinely produce a new result for an already-seen match, so they never
    enter the dedup ledger.  (``None`` outcomes are always re-examined,
    pure or not — see :meth:`apply_match_checked`.)  The default (impure)
    is always safe.

    ``content_key`` is the middle ground for impure rules: a function
    ``(egraph, class_id, substitution) -> hashable`` that captures
    *everything* the applier reads beyond the canonical ids — for
    the chain-folding rule, the walked list's class contents.  The runner
    then keeps a ``fingerprint -> content`` ledger and skips a match only
    while its content key is unchanged, so *any* outcome (including
    ``None``) may be ledgered: if re-running could differ, the key differs.
    The contract is strict — a key that misses one applier-visible input
    turns skipped epochs into missed rewrites.
    """

    name: str
    lhs: Pattern
    applier: Applier
    pure: bool = False
    #: See the class docstring; ``(egraph, class_id, substitution) -> hashable``.
    content_key: Optional[Callable[[EGraph, int, Substitution], object]] = None

    @property
    def deduplicable(self) -> bool:
        return self.pure or self.content_key is not None

    def apply_match_checked(self, egraph: EGraph, match: RewriteMatch) -> Tuple[bool, bool]:
        before = egraph.version
        new_id = self.applier(egraph, match.class_id, match.substitution)
        if new_id is None:
            # Not ``executed`` for ledger purposes even when ``pure``: a
            # None outcome can flip once a *bound class* gains the e-node
            # the applier was looking for (its id never changes), so the
            # match must be re-examined every epoch.
            return False, False
        egraph.merge(match.class_id, new_id)
        return egraph.version != before, True

    def __str__(self) -> str:
        return f"{self.name}: {self.lhs} => <dynamic>"


def rewrite(name: str, lhs: str, rhs: str) -> Rewrite:
    """Construct a syntactic rewrite from s-expression pattern text.

    Example::

        rewrite("lift-translate-union",
                "(Union (Translate ?x ?y ?z ?a) (Translate ?x ?y ?z ?b))",
                "(Translate ?x ?y ?z (Union ?a ?b))")
    """
    return Rewrite(name=name, lhs=parse_pattern(lhs), rhs=parse_pattern(rhs))


def dynamic_rewrite(
    name: str,
    lhs: str,
    applier: Applier,
    *,
    pure: bool = False,
    content_key: Optional[Callable[[EGraph, int, Substitution], object]] = None,
) -> DynamicRewrite:
    """Construct a dynamic rewrite from s-expression pattern text and an applier.

    Pass ``pure=True`` only when the applier's outcome depends solely on the
    canonical ids bound by the match; pass ``content_key`` for an impure
    rule whose extra inputs can be fingerprinted (see
    :class:`DynamicRewrite`).
    """
    return DynamicRewrite(
        name=name,
        lhs=parse_pattern(lhs),
        applier=applier,
        pure=pure,
        content_key=content_key,
    )
