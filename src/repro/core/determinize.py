"""List determinization (paper Section 4.2, Fig. 5 line 5).

After rewriting, each element of a folded list lives in an e-class with many
equivalent variants — the affine reordering rules alone can create
exponentially many orderings of a nested transformation chain.  The function
solvers need one *concrete* affine-transformed CAD per element, and the
chains must be *uniform* across elements (same transformation types, in the
same order) or the layer-by-layer vector extraction is meaningless.

The determinizer implements the paper's heuristic: a chain *signature* is
the sequence of affine operators from the outside in, and every element is
forced to a variant with one shared signature, searched for in its e-class.
The candidates are the signatures of the first element's variants, longest
first; one that some other element's class cannot materialize is passed
over.

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

* :meth:`Determinizer.signatures` memoizes, per ``(canonical class,
  depth)``, the affine signatures the class can materialize: ``()`` and
  ``(op,) + s`` for each affine e-node ``op`` of the class and each ``s``
  its solid child offers one level shallower.  The classes it walked go
  into ``_read`` and the sets are dropped with the materialize memo.  A
  signature materializes from a class exactly when it is in the class's
  set, so :meth:`Determinizer.determinize_all` tries exactly the
  signatures every element class offers, and loop inference skips a list
  with an element class that offers only ``()``: its loops need every
  element affine.

  Skipping an attempt that would fail moves no output, although the
  extractor below keeps each class's first-walk term and a skipped attempt
  moves some first walks later.  The extractor walks only element classes,
  their affine children and vector arguments: solids and numbers.  No solid
  class's witness is a list operator (a saturated ``Fold`` over a spine
  costs more than the ``Union``/``Inter`` chain its class also holds), so a
  walk never leaves solids and numbers.  During inference, merges join only
  list classes (``merge_term``'s target and the class of the list term it
  adds), and ``add_enode`` changes no existing class, so no witness a walk
  reads changes before the ``rebuild`` after both passes: a walk returns
  the same term whenever it runs.  ``tests/test_determinize_oracle.py``
  checks on Table 1 models that no inference merge joins a walked class.
* :meth:`Determinizer.merge_term` adds inferred terms through a
  ``Term -> class id`` memo, so a subterm added once is never walked again.
  Classes are never deleted, so ``find`` of a stored id is always the class
  that holds the term.
* :meth:`Determinizer.affine_chain` decomposes each element once for every
  reader: function inference's layer split, run detection and sort key,
  and loop inference's sort and outer layers, which compare the layers
  below a varying one by their tuples and the core.  Its keys compare like
  the e-graph's operator interning (``1 == 1.0``, ``0.0 == -0.0``), and
  every element is read out of that e-graph, so two elements that share a
  key are spelled alike.
"""

from __future__ import annotations

from collections import Counter
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
    says which signatures a class offers (:meth:`signatures`), reads list
    elements out of the e-graph (:meth:`determinize_all`), decomposes them
    (:meth:`affine_chain`) and writes inferred terms back
    (:meth:`merge_term`), memoizing all four.
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
        #: ``(canonical class, depth) -> its signatures``, valid and dropped
        #: with ``_materialized`` (its classes are in ``_read``).
        self._signatures: Dict[Tuple[int, int], Tuple[Tuple[str, ...], ...]] = {}
        #: Work counters, reported by the inference spans.
        self.determinized_lists = 0
        self.materialize_calls = 0
        self.materialize_memo_hits = 0
        self.materialize_memo_drops = 0
        #: Work the passes did or skipped: signature sets built
        #: (``signature_reads``), spine classes read and answers reused
        #: (``spine_reads``, ``spine_reuses``, see
        #: :func:`repro.core.lists.fold_worklist`), and the lists and runs the
        #: inference passes counted (see their ``run`` methods).
        self.work: Counter = Counter()

    # -- public ------------------------------------------------------------------

    def determinize_all(
        self, element_classes: Sequence[int], max_variants: int = 4
    ) -> List[DeterminizedList]:
        """Produce up to ``max_variants`` uniform concrete views of the list.

        Different affine orderings expose different vectors to the solvers —
        only the ordering matching the design's latent structure yields
        closed forms (e.g. Fig. 10's Translate/Rotate/Scale chain), so the
        arithmetic components try each returned variant in turn.  They are
        the signatures every element class offers (:meth:`signatures`), in
        the first class's order.
        """
        self.determinized_lists += 1
        element_classes = [self.egraph.find(c) for c in element_classes]
        if not element_classes:
            return []
        first = self.signatures(element_classes[0])
        shared = set(first)
        for class_id in element_classes[1:]:
            if len(shared) == 1:  # () alone, which every class offers
                break
            shared.intersection_update(self.signatures(class_id))
        return [
            DeterminizedList(
                elements=[self._materialize(c, signature) for c in element_classes],
                signature=signature,
                element_classes=list(element_classes),
            )
            for signature in [s for s in first if s in shared][:max_variants]
        ]

    def signatures(
        self, class_id: int, depth: int = MAX_SIGNATURE_DEPTH
    ) -> Tuple[Tuple[str, ...], ...]:
        """The affine signatures ``class_id`` can materialize, longest first.

        ``()`` and, for each affine e-node of the class, its operator
        followed by each signature of its solid child, up to ``depth``
        operators.  Longer signatures come first because they expose more
        layers to the function solver (a chain ``Translate . Rotate .
        Scale`` gives three solvable layers; its collapsed variants give
        fewer).  Memoized with the materialize memo, see the module
        docstring.
        """
        if not depth:
            return ((),)
        if self.egraph.union_version != self._memo_version:
            self._drop_memo()
        key = (self.egraph.find(class_id), depth)
        offered = self._signatures.get(key)
        if offered is None:
            self._read.add(key[0])
            found = {()}
            for enode in self.egraph.nodes(key[0]):
                if enode.op in AFFINE_OPS and len(enode.args) == 4:
                    head = (str(enode.op),)
                    found.update(head + s for s in self.signatures(enode.args[3], depth - 1))
            offered = self._signatures[key] = tuple(sorted(found, key=signature_sort_key))
            self.work["signature_reads"] += 1
        return offered

    def affine_chain(self, element: Term) -> AffineChain:
        """:func:`repro.csg.ops.affine_chain` of ``element``, layers as a tuple (memoized)."""
        chain = self._chains.get(element)
        if chain is None:
            layers, core = affine_chain(element)
            chain = (tuple(layers), core)
            self._chains[element] = chain
        return chain

    # -- materialization ------------------------------------------------------------

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
        self._signatures.clear()
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
