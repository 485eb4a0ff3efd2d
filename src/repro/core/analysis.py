"""Structural analysis of synthesized programs.

Table 1 describes each output program by its loop structure (``n-l``: number
and bounds of nested loops) and by the class of closed-form functions it uses
(``f``: degree-1, degree-2, or trigonometric).  Rather than trusting the
inference bookkeeping (which records every fold it touched, including
sub-lists that did not make it into the chosen program), these summaries are
recomputed from the extracted program itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang.term import Term


@dataclass(frozen=True)
class LoopDescriptor:
    """One loop nest found in a program: its nesting depth and bounds."""

    bounds: Tuple[int, ...]

    @property
    def nesting(self) -> int:
        return len(self.bounds)

    def label(self) -> str:
        """The Table 1 ``n-l`` notation, e.g. ``n1,60`` or ``n2,2,3``."""
        return f"n{self.nesting}," + ",".join(str(b) for b in self.bounds)


def _list_length(term: Term) -> Optional[int]:
    """Static length of a LambdaCAD list expression, when determinable.

    A ``Map``/``Mapi``, or a ``Fold`` used as a list producer (the
    map-concatenate convention), is as long as its list.
    """
    total = 0
    pending = [term]
    while pending:
        node = pending.pop()
        op, children = node.op, node.children
        if op == "Nil":
            continue
        if op == "Cons" and len(children) == 2:
            total += 1
            pending.append(children[1])
        elif op == "Repeat" and len(children) == 2:
            if not children[1].is_number:
                return None
            total += int(children[1].value)
        elif op == "Concat" and len(children) == 2:
            pending.extend(children)
        elif op in ("Map", "Mapi") and len(children) == 2:
            pending.append(children[1])
        elif op == "Fold" and len(children) == 3:
            pending.append(children[2])
        else:
            return None
    return total


def _is_loop_node(term: Term) -> bool:
    if term.op == "Mapi" or term.op == "Map":
        return True
    if term.op == "Fold" and len(term.children) == 3:
        function = term.children[0]
        # Folds over a boolean operator merely combine a list; folds over a
        # Fun are the nested-loop output shape and count as loops.
        return function.op == "Fun"
    return False


def _own_bound(node: Term) -> Tuple[int, ...]:
    """The bound a loop node adds to its nest: ``(n,)``, or ``()``."""
    # A Mapi whose list is itself a Map/Mapi (the Fig. 10 nested-Mapi
    # chain) iterates the *same* index space as the inner combinator — it
    # adds a transformation layer, not a loop dimension — so only the
    # innermost of such a chain contributes a bound.
    if node.op in ("Map", "Mapi"):
        items = node.children[1]
        if len(node.children) == 2 and items.op in ("Map", "Mapi"):
            return ()
    else:
        items = node.children[2]
    bound = _list_length(items)
    return () if bound is None else (bound,)


def _nest_bounds(root: Term, memo: Dict[int, Tuple[int, ...]]) -> Tuple[int, ...]:
    """The bounds of the longest chain of loop nodes from ``root`` down.

    Nested loops appear either inside a function body (Fold-of-Fun nested
    loops) or as a list argument (nested Mapis); of a node's children the
    first with the longest chain wins.  ``memo`` maps ``id(subterm)`` to
    its answer.
    """
    pending = [root]
    while pending:
        node = pending.pop()
        missing = [child for child in node.children if id(child) not in memo]
        if missing:
            pending.append(node)
            pending.extend(missing)
            continue
        best: Tuple[int, ...] = ()
        for child in node.children:
            if len(memo[id(child)]) > len(best):
                best = memo[id(child)]
        memo[id(node)] = _own_bound(node) + best if _is_loop_node(node) else best
    return memo[id(root)]


def find_loops(term: Term) -> List[LoopDescriptor]:
    """Find every outermost loop nest in a program.

    A nest is an outermost loop node together with the chain of loop nodes
    directly nested inside it (through its function body or its list
    argument); sibling nests are reported separately, left to right.
    """
    nests: List[LoopDescriptor] = []
    memo: Dict[int, Tuple[int, ...]] = {}
    pending = [term]
    while pending:
        node = pending.pop()
        if _is_loop_node(node):
            nests.append(LoopDescriptor(bounds=_nest_bounds(node, memo)))
        else:
            pending.extend(reversed(node.children))
    # Drop degenerate descriptors with no static bound information.
    return [n for n in nests if n.bounds]


def _is_index(node: Term) -> bool:
    return node.is_leaf and isinstance(node.op, str) and node.op in ("i", "j", "k")


def _body_kind(body: Term) -> Optional[str]:
    """``theta`` for a trigonometric loop body, ``d2`` when an index is
    multiplied by itself, ``d1`` for other index arithmetic, else None."""
    nodes = list(body.subterms())
    if any(node.op in ("Sin", "Cos", "Arctan") for node in nodes):
        return "theta"
    if not any(_is_index(node) for node in nodes):
        return None
    for node in nodes:
        if node.op == "Mul" and len(node.children) == 2:
            left, right = node.children
            if left == right and any(_is_index(sub) for sub in left.subterms()):
                return "d2"
    return "d1"


def function_kinds(term: Term) -> List[str]:
    """The closed-form function classes of a program's loop bodies
    (``theta``, ``d2``, ``d1``: see ``_body_kind``), in order of first use."""
    kinds: List[str] = []
    for sub in term.subterms():
        if sub.op == "Fun" and len(sub.children) >= 2:
            kind = _body_kind(sub.children[-1])
            if kind is not None and kind not in kinds:
                kinds.append(kind)
    return kinds
