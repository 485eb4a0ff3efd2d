"""List determinization (paper Section 4.2, Fig. 5 line 5).

After rewriting, each element of a folded list lives in an e-class with many
equivalent variants — the affine reordering rules alone can create
exponentially many orderings of a nested transformation chain.  The function
solvers need one *concrete* affine-transformed CAD per element, and the
chains must be *uniform* across elements (same transformation types, in the
same order) or the layer-by-layer vector extraction is meaningless.

The determinizer implements the paper's heuristic: pick a representative for
the first element, record its chain signature (the sequence of affine
operators from the outside in), and then force every other element to a
variant with the same signature, searching its e-class for one.  Elements
whose class has no variant with that signature cause the whole signature to
be abandoned and the next candidate signature to be tried.

The affine-operator vocabulary and the longest-first candidate ordering
come from the shared semantic normalization layer (:mod:`repro.lang.normal`),
the same definitions the cache's semantic fingerprints are built on;
elements are decomposed by :func:`repro.csg.ops.affine_chain`.

One :class:`Determinizer` serves both inference passes of a synthesis run,
and it answers each question once:

* ``_materialize`` memoizes its answer — a term, or ``None`` for "no
  variant with this signature" — per ``(canonical class, signature)``, and
  records the canonical ids its answers read: the class itself, the
  classes of its vector arguments and every child class it recursed into,
  attempts that failed included.  :meth:`Determinizer.merge_term` keeps the
  memo when neither of the two roots it unions was read; otherwise it drops
  the memo.  Any other merge drops it too, through
  :attr:`EGraph.union_version`.  This is sound because, while the memo
  lives, nothing an answer read can change:

  - a merge changes only the e-node lists and canonical ids of the two
    roots it unions; during inference every merge goes through
    ``merge_term``, and congruence repair waits for the one ``rebuild``
    after both passes;
  - ``add_enode`` never adds an e-node to an existing class: it returns
    the class that already holds the e-node, or a fresh one;
  - the determinizer's :class:`Extractor` memoizes the term of every
    class it walked, so an extracted vector argument keeps its term.

* :meth:`Determinizer.merge_term` adds inferred terms through a
  ``Term -> class id`` memo, so a subterm added once is never walked again.
  Classes are never deleted, so ``find`` of a stored id is always the class
  that holds the term.
* :meth:`Determinizer.affine_chain` decomposes each element once for every
  reader: function inference's layer split, run detection and sort key,
  and loop inference's sort.  Its keys compare like the e-graph's operator
  interning (``1 == 1.0``, ``0.0 == -0.0``), and every element is read out
  of that e-graph, so two elements that share a key are spelled alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.csg.ops import affine_chain
from repro.egraph.egraph import EGraph, ENode
from repro.egraph.extract import Extractor
from repro.lang.normal import AFFINE_OPS, signature_sort_key
from repro.lang.term import Term

#: The longest affine signature considered: deeper chains are cut to their
#: outermost four operators.
MAX_SIGNATURE_DEPTH = 4

#: An element's affine layers, outermost first, and the solid under them.
AffineChain = Tuple[Tuple[Tuple[str, Tuple[float, float, float]], ...], Term]


@dataclass
class DeterminizedList:
    """A concrete, uniform view of a folded list."""

    #: One concrete term per element, all sharing the same affine signature.
    elements: List[Term]
    #: The shared affine signature, outermost first (possibly empty).
    signature: Tuple[str, ...]
    #: E-class ids the elements came from (parallel to ``elements``).
    element_classes: List[int]

    def __len__(self) -> int:
        return len(self.elements)


class Determinizer:
    """Chooses consistent concrete variants for list elements.

    Function and loop inference share one instance per synthesis run: it
    reads list elements out of the e-graph (:meth:`determinize_all`),
    decomposes them (:meth:`affine_chain`) and writes inferred terms back
    (:meth:`merge_term`), memoizing all three.
    """

    def __init__(self, egraph: EGraph):
        self.egraph = egraph
        self._extractor = Extractor(egraph)
        #: ``(canonical class, signature) -> term or None``, valid while
        #: ``egraph.union_version == _memo_version``.
        self._materialized: Dict[Tuple[int, Tuple[str, ...]], Optional[Term]] = {}
        #: Canonical ids the memoized answers read.
        self._read: Set[int] = set()
        self._memo_version = egraph.union_version
        #: ``Term -> class id`` of every term :meth:`merge_term` has added.
        self._added: Dict[Term, int] = {}
        #: ``Term -> (layers, core)`` of every element :meth:`affine_chain` read.
        self._chains: Dict[Term, AffineChain] = {}
        #: Work counters, reported by the inference spans.
        self.determinized_lists = 0
        self.materialize_calls = 0
        self.materialize_memo_hits = 0
        self.materialize_memo_drops = 0

    # -- public ------------------------------------------------------------------

    def determinize_all(
        self, element_classes: Sequence[int], max_variants: int = 4
    ) -> List[DeterminizedList]:
        """Produce up to ``max_variants`` uniform concrete views of the list.

        Different affine orderings expose different vectors to the solvers —
        only the ordering matching the design's latent structure yields
        closed forms (e.g. Fig. 10's Translate/Rotate/Scale chain), so the
        arithmetic components try each returned variant in turn.
        """
        self.determinized_lists += 1
        element_classes = [self.egraph.find(c) for c in element_classes]
        if not element_classes:
            return []

        variants: List[DeterminizedList] = []
        for signature in self._candidate_signatures(element_classes[0]):
            if len(variants) >= max_variants:
                break
            elements = self._materialize_all(element_classes, signature)
            if elements is not None:
                variants.append(
                    DeterminizedList(
                        elements=elements,
                        signature=signature,
                        element_classes=list(element_classes),
                    )
                )
        return variants

    def affine_chain(self, element: Term) -> AffineChain:
        """:func:`repro.csg.ops.affine_chain` of ``element``, layers as a tuple (memoized)."""
        chain = self._chains.get(element)
        if chain is None:
            layers, core = affine_chain(element)
            chain = (tuple(layers), core)
            self._chains[element] = chain
        return chain

    # -- candidate signatures -----------------------------------------------------

    def _candidate_signatures(self, class_id: int) -> List[Tuple[str, ...]]:
        """Affine signatures available for the first element, longest first.

        Longer signatures are preferred because they expose more layers to
        the function solver (a chain ``Translate . Rotate . Scale`` gives
        three solvable layers; its collapsed variants give fewer).
        """
        signatures = set()
        self._collect_signatures(class_id, (), signatures, set())
        ordered = sorted(signatures, key=signature_sort_key)
        return ordered or [()]

    def _collect_signatures(
        self,
        class_id: int,
        prefix: Tuple[str, ...],
        accumulator: set,
        visiting: set,
    ) -> None:
        class_id = self.egraph.find(class_id)
        if len(prefix) >= MAX_SIGNATURE_DEPTH:
            accumulator.add(prefix)
            return
        key = (class_id, prefix)
        if key in visiting:
            return
        visiting.add(key)
        accumulator.add(prefix)
        for enode in self.egraph.nodes(class_id):
            if enode.op in AFFINE_OPS and len(enode.args) == 4:
                self._collect_signatures(
                    enode.args[3], prefix + (str(enode.op),), accumulator, visiting
                )

    # -- materialization ------------------------------------------------------------

    def _materialize_all(
        self, element_classes: Sequence[int], signature: Tuple[str, ...]
    ) -> Optional[List[Term]]:
        elements = []
        for class_id in element_classes:
            term = self._materialize(class_id, signature)
            if term is None:
                return None
            elements.append(term)
        return elements

    def _materialize(self, class_id: int, signature: Tuple[str, ...]) -> Optional[Term]:
        """Extract a concrete term from ``class_id`` whose affine chain starts
        with exactly the operators of ``signature`` (memoized, see the
        module docstring)."""
        self.materialize_calls += 1
        if self.egraph.union_version != self._memo_version:
            self._drop_memo()
        key = (self.egraph.find(class_id), signature)
        if key in self._materialized:
            self.materialize_memo_hits += 1
            return self._materialized[key]
        self._read.add(key[0])
        term = self._materialize_uncached(key[0], signature)
        self._materialized[key] = term
        return term

    def _materialize_uncached(
        self, class_id: int, signature: Tuple[str, ...]
    ) -> Optional[Term]:
        if not signature:
            # The empty signature accepts whatever the extractor picks, an
            # affine head included: uniformity matters more than minimality.
            return self._extractor.extract(class_id)
        head = signature[0]
        for enode in self.egraph.nodes(class_id):
            if enode.op != head or len(enode.args) != 4:
                continue
            vector_terms = []
            for arg in enode.args[:3]:
                self._read.add(self.egraph.find(arg))
                vector_terms.append(self._extractor.extract(arg))
            child = self._materialize(enode.args[3], signature[1:])
            if child is None:
                continue
            return Term(head, tuple(vector_terms) + (child,))
        return None

    def _drop_memo(self) -> None:
        self._materialized.clear()
        self._read.clear()
        self._memo_version = self.egraph.union_version
        self.materialize_memo_drops += 1

    # -- merging inferred terms -------------------------------------------------------

    def merge_term(self, class_id: int, term: Term) -> None:
        """Add ``term`` to the e-graph and merge it into ``class_id``.

        The materialize memo survives the merge when no memoized answer
        read either of the two roots it unions (see the module docstring).
        """
        added = self._add(term)
        roots = (self.egraph.find(class_id), self.egraph.find(added))
        if roots[0] == roots[1]:
            return
        current = self._memo_version == self.egraph.union_version
        self.egraph.merge(class_id, added)
        if not self._read.isdisjoint(roots):
            self._drop_memo()
        elif current:
            self._memo_version = self.egraph.union_version

    def _add(self, term: Term) -> int:
        """The class of ``term``, adding each subterm not added before.

        Children go in left to right before their parent, from an explicit
        stack, so a deep term needs no recursion.
        """
        added = self._added
        ids: List[int] = []  # classes of finished subterms not yet consumed
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                known = added.get(node)
                if known is not None:
                    ids.append(known)
                    continue
                if node.children:
                    stack.append((node, True))
                    stack.extend((child, False) for child in reversed(node.children))
                    continue
            arity = len(node.children)
            args = tuple(ids[len(ids) - arity:]) if arity else ()
            del ids[len(ids) - arity:]
            class_id = added[node] = self.egraph.add_enode(ENode(node.op, args))
            ids.append(class_id)
        return ids[0]
