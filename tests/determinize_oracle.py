"""The determinize code paths the gated, read-once ones replaced.

``tests/test_determinize_oracle.py`` diffs production against them:

* :func:`read_list_elements` / :func:`fold_worklist` — the per-list spine
  reader: every list reads its whole spine again, suffixes included, and
  nothing is shared between reads;
* :class:`UngatedDeterminizer` — ``determinize_all`` walks the first
  element's class for its candidate signatures, with no memo, and tries
  each one against every element;
* :class:`UngatedLoopInference` — loop inference determinizes every list of
  its worklist, including lists with an element class no affine e-node
  heads, and walks each element's terms for the outer layers, once per
  loop shape;
* :class:`EagerFunctionInference` — the full-list inference is tried in
  both orders, and the sorted order is computed, whatever the elements.

Patching all four into ``repro.core`` (see :func:`reference_pipeline`)
synthesizes as the pipeline did before the gate, the signature memo and
the shared reader.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Set, Tuple

from repro.core import function_inference, loop_inference, pipeline
from repro.core.determinize import MAX_SIGNATURE_DEPTH, DeterminizedList, Determinizer
from repro.core.function_inference import FunctionInference
from repro.core.lists import ListReadError, _literal_int, find_fold_matches, sort_elements
from repro.core.loop_inference import LoopInference
from repro.csg.ops import affine_vector, is_affine
from repro.egraph.egraph import EGraph
from repro.lang.normal import AFFINE_OPS, signature_sort_key
from repro.lang.term import Term


def read_list_elements(egraph: EGraph, list_class: int, *, max_length: int = 100_000) -> List[int]:
    """The longest readable spine of ``list_class``, read on its own."""
    best = _read_variants(egraph, egraph.find(list_class), max_length)
    if best is None:
        raise ListReadError(f"e-class {list_class} does not contain a list spine")
    best.reverse()
    return best


def _read_variants(egraph: EGraph, list_class: int, max_length: int) -> Optional[List[int]]:
    root = egraph.find(list_class)
    path: Set[int] = {root}
    stack = [(root, _class_variants(egraph, root, max_length))]
    answer: Optional[List[int]] = None
    while stack:
        class_id, reader = stack[-1]
        try:
            child = egraph.find(reader.send(answer))
        except StopIteration as finished:
            stack.pop()
            path.discard(class_id)
            answer = finished.value
            continue
        answer = None
        if child not in path:
            path.add(child)
            stack.append((child, _class_variants(egraph, child, max_length)))
    return answer


def _class_variants(
    egraph: EGraph, list_class: int, max_length: int
) -> Generator[int, Optional[List[int]], Optional[List[int]]]:
    best: Optional[List[int]] = None
    for enode in egraph.nodes(list_class):
        variant: Optional[List[int]] = None
        if enode.op == "Nil" and not enode.args:
            variant = []
        elif enode.op == "Cons" and len(enode.args) == 2:
            tail = yield enode.args[1]
            if tail is not None and len(tail) + 1 <= max_length:
                tail.append(egraph.find(enode.args[0]))
                variant = tail
        elif enode.op == "Concat" and len(enode.args) == 2:
            left = yield enode.args[0]
            if left is not None:
                right = yield enode.args[1]
                if right is not None:
                    variant = right + left
        elif enode.op == "Repeat" and len(enode.args) == 2:
            count = _literal_int(egraph, enode.args[1])
            if count is not None and 0 <= count <= max_length:
                variant = [egraph.find(enode.args[0])] * count
        if variant is not None and (best is None or len(variant) > len(best)):
            best = variant
    return best


def fold_worklist(egraph: EGraph, min_length: int, work=None) -> List[Tuple[int, List[int]]]:
    """:func:`repro.core.lists.fold_worklist` with one read per list (``work`` ignored)."""
    result: List[Tuple[int, List[int]]] = []
    for _fold_class, function_class, _acc_class, list_class in find_fold_matches(egraph):
        if not any(
            enode.is_leaf and enode.op in ("Union", "Inter")
            for enode in egraph.nodes(function_class)
        ):
            continue
        try:
            element_classes = read_list_elements(egraph, list_class)
        except ListReadError:
            continue
        if len(element_classes) >= min_length:
            result.append((list_class, element_classes))
    result.sort(key=lambda item: -len(item[1]))
    return result


class UngatedDeterminizer(Determinizer):
    def determinize_all(
        self, element_classes: Sequence[int], max_variants: int = 4
    ) -> List[DeterminizedList]:
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

    def _candidate_signatures(self, class_id: int) -> List[Tuple[str, ...]]:
        """Affine signatures available for the first element, longest first."""
        signatures: Set[Tuple[str, ...]] = set()
        self._collect_signatures(class_id, (), signatures, set())
        return sorted(signatures, key=signature_sort_key)

    def _collect_signatures(
        self, class_id: int, prefix: Tuple[str, ...], accumulator: set, visiting: set
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


class UngatedLoopInference(LoopInference):
    def run(self) -> int:
        egraph = self.determinizer.egraph
        work = fold_worklist(egraph, min_length=4)

        successes = 0
        regular_covered: List[frozenset] = []
        for list_class, element_classes in work:
            element_set = frozenset(element_classes)
            if any(element_set <= done for done in regular_covered):
                continue
            built = None
            regular = False
            for determinized in self.determinizer.determinize_all(element_classes, max_variants=3):
                elements = sort_elements(determinized.elements, self.determinizer.affine_chain)
                outer = self._outer_layers(elements)
                built = None if outer is None else self._infer_regular(outer, len(elements))
                regular = built is not None
                if built is None:
                    outer = self._outer_layers(elements)
                    built = None if outer is None else self._infer_irregular(elements, outer)
                if built is not None:
                    break
            if built is None:
                continue
            term, record = built
            self.determinizer.merge_term(list_class, term)
            record.list_class = egraph.find(list_class)
            self.records.append(record)
            if regular:
                regular_covered.append(element_set)
            successes += 1
        return successes


    def _outer_layers(self, elements):
        if not elements or not all(is_affine(e) for e in elements):
            return None

        def layer_of(element: Term, depth: int) -> Optional[Term]:
            current = element
            for _ in range(depth):
                if not is_affine(current):
                    return None
                current = current.children[3]
            return current

        constant_wrappers = []
        depth = 0
        while True:
            heads = [layer_of(e, depth) for e in elements]
            if any(h is None or not is_affine(h) for h in heads):
                return None
            op = heads[0].op
            if any(h.op != op for h in heads):
                return None
            vectors = [affine_vector(h) for h in heads]
            first_vector = vectors[0]
            constant_tolerance = max(self.config.epsilon, 1e-9)
            if all(
                all(abs(v[k] - first_vector[k]) <= constant_tolerance for k in range(3))
                for v in vectors
            ):
                constant_wrappers.append((str(op), first_vector))
                depth += 1
                if depth > 6:
                    return None
                continue
            remainders = [h.children[3] for h in heads]
            first = remainders[0]
            if any(r != first for r in remainders):
                return None
            return str(op), vectors, first, constant_wrappers


class EagerFunctionInference(FunctionInference):
    def _infer_for_list(
        self, list_class: int, determinized: DeterminizedList, *, allow_partial: bool = True
    ) -> bool:
        elements = determinized.elements
        orders: List[Sequence[Term]] = [elements]
        sorted_order = sort_elements(elements, self.determinizer.affine_chain)
        if sorted_order != elements:
            orders.append(sorted_order)

        solved = False
        full_solved = False
        for order in orders:
            decomposed = self._decompose(order)
            built = None if decomposed is None else self._infer_full(*decomposed, len(order))
            if built is not None:
                self._merge(list_class, *built)
                solved = True
                full_solved = True
                break

        if not allow_partial:
            return solved

        if not full_solved or len(determinized) <= 6:
            for order in orders:
                built = self._infer_partial(order)
                if built is not None:
                    self._merge(list_class, *built)
                    solved = True
                    break
        return solved


def reference_pipeline(monkeypatch) -> None:
    """Make :func:`repro.core.pipeline.synthesize` run the reference paths."""
    monkeypatch.setattr(pipeline, "Determinizer", UngatedDeterminizer)
    monkeypatch.setattr(pipeline, "FunctionInference", EagerFunctionInference)
    monkeypatch.setattr(pipeline, "LoopInference", UngatedLoopInference)
    monkeypatch.setattr(function_inference, "fold_worklist", fold_worklist)
    monkeypatch.setattr(loop_inference, "fold_worklist", fold_worklist)
