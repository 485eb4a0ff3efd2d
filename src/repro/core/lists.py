"""Reading the folded lists inside the e-graph.

The fold-introduction rewrites leave list *spines* in the e-graph: e-classes
containing ``Cons`` e-nodes whose second argument is another list e-class.
Both arithmetic components start from the same worklist
(:func:`fold_worklist`): the spines under commutative folds, read into
their element e-classes in order.  Once a component has determinized a
list into concrete terms, :func:`sort_elements` gives the reordered view
its solvers also try (paper Section 4.3, Fig. 11).  What a component
infers goes back into the e-graph as a term merged into the list's e-class.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Set, Tuple

from repro.csg.ops import affine_chain
from repro.egraph.egraph import EGraph
from repro.lang.term import Term


class ListReadError(ValueError):
    """Raised when an e-class does not contain a readable list spine."""


def read_list_elements(egraph: EGraph, list_class: int, *, max_length: int = 100_000) -> List[int]:
    """Walk the ``Cons`` spine of an e-class and return element e-class ids.

    When the class contains several spine variants (it usually does after
    rewriting — e.g. both ``Cons x (Cons y Nil)`` and ``Cons x zs`` shapes),
    the *longest* readable spine is returned, which corresponds to the most
    completely folded view of the repeated structure.  ``Concat`` nodes are
    flattened.  Cycles (a class reachable from itself through spines) abort
    that variant.
    """
    best = _read_variants(egraph, egraph.find(list_class), max_length)
    if best is None:
        raise ListReadError(f"e-class {list_class} does not contain a list spine")
    best.reverse()
    return best


def _read_variants(egraph: EGraph, list_class: int, max_length: int) -> Optional[List[int]]:
    """The longest readable spine of ``list_class``, last element first, or None.

    Each class is read by a :func:`_class_variants` generator, which yields
    the class of every ``Cons`` tail or ``Concat`` side it needs and
    receives that read's answer.  The generators wait on an explicit stack,
    so a long spine needs no recursion, and ``path`` holds the classes on
    that stack: a class met again on its own path reads as None (that
    variant would be cyclic).  Answers are built back to front: a ``Cons``
    appends its head to the tail's answer, which no other reader holds, so
    a spine of n elements costs O(n).
    """
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


def _literal_int(egraph: EGraph, class_id: int) -> Optional[int]:
    for enode in egraph.nodes(class_id):
        if isinstance(enode.op, (int, float)) and not isinstance(enode.op, bool):
            value = float(enode.op)
            if value == int(value):
                return int(value)
    return None


def find_fold_matches(egraph: EGraph) -> List[Tuple[int, int, int, int]]:
    """All ``Fold`` e-nodes as (fold class, function class, accumulator class, list class)."""
    matches: List[Tuple[int, int, int, int]] = []
    seen = set()
    for eclass in list(egraph.classes()):
        class_id = egraph.find(eclass.id)
        for enode in eclass.nodes:
            if enode.op == "Fold" and len(enode.args) == 3:
                key = (class_id,) + tuple(egraph.find(a) for a in enode.args)
                if key not in seen:
                    seen.add(key)
                    matches.append(key)
    return matches


def fold_worklist(egraph: EGraph, min_length: int) -> List[Tuple[int, List[int]]]:
    """The lists the arithmetic components work on, longest first.

    Returns ``(list class, element classes)`` for every ``Fold`` whose
    function is a ``Union``/``Inter`` leaf and whose list reads to at least
    ``min_length`` elements.  Reordering and ``Repeat``-based regrouping are
    only semantics preserving when the combining operator does not care
    about order.  The sort is stable, so lists of equal length keep the
    order of :func:`find_fold_matches`, which follows e-class ids and does
    not depend on hash seeds.
    """
    work: List[Tuple[int, List[int]]] = []
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
            work.append((list_class, element_classes))
    work.sort(key=lambda item: -len(item[1]))
    return work


def sort_elements(elements: Sequence[Term], chain=affine_chain) -> List[Term]:
    """Sort elements lexicographically by their affine-transformation vectors.

    The key is the element's affine vectors, outermost first, then its core
    operator.  ``chain`` decomposes an element as
    :func:`repro.csg.ops.affine_chain` does; the inference passes give
    :meth:`repro.core.determinize.Determinizer.affine_chain`, which
    decomposes each element once per synthesis.
    """

    def key(element: Term) -> Tuple:
        layers, core = chain(element)
        return (tuple(vector for _op, vector in layers), str(core.op))

    return sorted(elements, key=key)
