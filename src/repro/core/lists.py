"""Reading and writing ``Cons``/``Nil`` lists inside the e-graph.

The fold-introduction rewrites leave list *spines* in the e-graph: e-classes
containing ``Cons`` e-nodes whose second argument is another list e-class.
The arithmetic components need to walk those spines (to get the element
e-classes in order), and to write new spines back (e.g. a sorted copy of a
list, or a ``Mapi`` expression equivalent to the whole list).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.egraph.egraph import EGraph, ENode
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
    best = _read_variants(egraph, egraph.find(list_class), frozenset(), max_length)
    if best is None:
        raise ListReadError(f"e-class {list_class} does not contain a list spine")
    return best


def _read_variants(
    egraph: EGraph, list_class: int, visiting: frozenset, max_length: int
) -> Optional[List[int]]:
    list_class = egraph.find(list_class)
    if list_class in visiting:
        return None
    visiting = visiting | {list_class}
    best: Optional[List[int]] = None
    for enode in egraph.nodes(list_class):
        variant: Optional[List[int]] = None
        if enode.op == "Nil" and not enode.args:
            variant = []
        elif enode.op == "Cons" and len(enode.args) == 2:
            tail = _read_variants(egraph, enode.args[1], visiting, max_length)
            if tail is not None and len(tail) + 1 <= max_length:
                variant = [egraph.find(enode.args[0])] + tail
        elif enode.op == "Concat" and len(enode.args) == 2:
            left = _read_variants(egraph, enode.args[0], visiting, max_length)
            right = _read_variants(egraph, enode.args[1], visiting, max_length)
            if left is not None and right is not None:
                variant = left + right
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


def add_cons_spine(egraph: EGraph, element_ids: Sequence[int]) -> int:
    """Insert a ``Cons`` spine over existing element e-classes; returns its id."""
    spine = egraph.add_enode(ENode("Nil"))
    for element in reversed(list(element_ids)):
        spine = egraph.add_enode(ENode("Cons", (egraph.find(element), spine)))
    return spine


def add_term_list(egraph: EGraph, terms: Sequence[Term]) -> int:
    """Insert a ``Cons`` spine over freshly added terms; returns its id."""
    return add_cons_spine(egraph, [egraph.add_term(t) for t in terms])


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
