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

from collections import Counter
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.csg.ops import affine_chain
from repro.egraph.egraph import EGraph
from repro.lang.term import Term


#: The longest list a spine read returns: a longer variant reads as None.
MAX_LIST_LENGTH = 100_000


class ListReadError(ValueError):
    """Raised when an e-class does not contain a readable list spine."""


def read_list_elements(
    egraph: EGraph, list_class: int, *, max_length: int = MAX_LIST_LENGTH
) -> List[int]:
    """Walk the ``Cons`` spine of an e-class and return element e-class ids.

    When the class contains several spine variants (it usually does after
    rewriting — e.g. both ``Cons x (Cons y Nil)`` and ``Cons x zs`` shapes),
    the *longest* readable spine is returned, which corresponds to the most
    completely folded view of the repeated structure.  ``Concat`` nodes are
    flattened.  Cycles (a class reachable from itself through spines) abort
    that variant.
    """
    elements = _SpineReader(egraph, max_length).elements(list_class)
    if elements is None:
        raise ListReadError(f"e-class {list_class} does not contain a list spine")
    return elements


#: A spine read back to front: ``buffer[:length]`` holds the element classes,
#: last element first.  Answers share buffers: a ``Cons`` appends its head
#: in place when the tail's answer ends its buffer and copies the prefix
#: otherwise, and nothing ever writes inside an answer's prefix.
_Spine = Tuple[List[int], int]


class _SpineReader:
    """Reads list spines, sharing every answer that does not depend on its path.

    Each class is read by a :func:`_class_variants` generator, which yields
    the class of every ``Cons`` tail or ``Concat`` side it needs and
    receives that read's answer.  The generators wait on an explicit stack,
    so a long spine needs no recursion, and the path holds the classes on
    that stack: a class met again on its own path reads as None (that
    variant would be cyclic).

    A read that met no class again on its path, directly or below, is
    *clean*, and its answer is the same under every path.  Suppose a later
    read of the same class, on another path, cut a class the clean read
    entered: that class lies on the later path; take the one highest on it.
    From there down to the cleanly read class, the clean read would meet
    the nodes the later read met, in the same order and with the same
    answers (the later read cut no class above it), so it would have met
    its own first class again.  ``tests/test_determinize_oracle.py``
    checks the sharing against independent reads on random e-graphs with
    cycles.  So each clean answer is kept for the reader's lifetime (the
    e-graph must not change meanwhile), a class is read once however many
    lists run through it, and an answer that depends on its path is not
    kept.
    """

    def __init__(self, egraph: EGraph, max_length: int, work: Optional[Counter] = None):
        self.egraph = egraph
        self.max_length = max_length
        self.work = Counter() if work is None else work
        self._clean: Dict[int, Optional[_Spine]] = {}

    def elements(self, list_class: int) -> Optional[List[int]]:
        """The longest readable spine of ``list_class`` in order, or None."""
        spine = self.read(list_class)
        if spine is None:
            return None
        buffer, length = spine
        return buffer[length - 1::-1] if length else []

    def read(self, list_class: int) -> Optional[_Spine]:
        """The longest readable spine of ``list_class``, last element first."""
        egraph, clean, work = self.egraph, self._clean, self.work
        root = egraph.find(list_class)
        if root in clean:
            work["spine_reuses"] += 1
            return clean[root]
        path: Set[int] = {root}
        # Frames: [class, its reader, whether a cut reached its answer].
        stack = [[root, _class_variants(egraph, root, self.max_length), False]]
        work["spine_reads"] += 1
        answer: Optional[_Spine] = None
        while stack:
            frame = stack[-1]
            try:
                child = egraph.find(frame[1].send(answer))
            except StopIteration as finished:
                stack.pop()
                path.discard(frame[0])
                answer = finished.value
                if not frame[2]:
                    clean[frame[0]] = answer
                elif stack:
                    stack[-1][2] = True
                continue
            if child in path:
                answer = None
                frame[2] = True
            elif child in clean:
                answer = clean[child]
                work["spine_reuses"] += 1
            else:
                answer = None
                path.add(child)
                stack.append([child, _class_variants(egraph, child, self.max_length), False])
                work["spine_reads"] += 1
        return answer


def _class_variants(
    egraph: EGraph, list_class: int, max_length: int
) -> Generator[int, Optional[_Spine], Optional[_Spine]]:
    best: Optional[_Spine] = None
    for enode in egraph.nodes(list_class):
        variant: Optional[_Spine] = None
        if enode.op == "Nil" and not enode.args:
            variant = ([], 0)
        elif enode.op == "Cons" and len(enode.args) == 2:
            tail = yield enode.args[1]
            if tail is not None and tail[1] < max_length:
                buffer, length = tail
                if len(buffer) != length:
                    buffer = buffer[:length]
                buffer.append(egraph.find(enode.args[0]))
                variant = (buffer, length + 1)
        elif enode.op == "Concat" and len(enode.args) == 2:
            left = yield enode.args[0]
            if left is not None:
                right = yield enode.args[1]
                if right is not None:
                    variant = (right[0][:right[1]] + left[0][:left[1]], right[1] + left[1])
        elif enode.op == "Repeat" and len(enode.args) == 2:
            count = _literal_int(egraph, enode.args[1])
            if count is not None and 0 <= count <= max_length:
                variant = ([egraph.find(enode.args[0])] * count, count)
        if variant is not None and (best is None or variant[1] > best[1]):
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


def fold_worklist(
    egraph: EGraph, min_length: int, work: Optional[Counter] = None
) -> List[Tuple[int, List[int]]]:
    """The lists the arithmetic components work on, longest first.

    Returns ``(list class, element classes)`` for every ``Fold`` whose
    function is a ``Union``/``Inter`` leaf and whose list reads to at least
    ``min_length`` elements.  Reordering and ``Repeat``-based regrouping are
    only semantics preserving when the combining operator does not care
    about order.  The sort is stable, so lists of equal length keep the
    order of :func:`find_fold_matches`, which follows e-class ids and does
    not depend on hash seeds.

    One reader serves every list, so a chain's suffix lists reuse the
    answers its longest spine already read.  ``work``, when given, counts
    the classes read (``spine_reads``) and the answers reused
    (``spine_reuses``).
    """
    reader = _SpineReader(egraph, MAX_LIST_LENGTH, work)
    work_list: List[Tuple[int, List[int]]] = []
    for _fold_class, function_class, _acc_class, list_class in find_fold_matches(egraph):
        if not any(
            enode.is_leaf and enode.op in ("Union", "Inter")
            for enode in egraph.nodes(function_class)
        ):
            continue
        element_classes = reader.elements(list_class)
        if element_classes is not None and len(element_classes) >= min_length:
            work_list.append((list_class, element_classes))
    work_list.sort(key=lambda item: -len(item[1]))
    return work_list


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
