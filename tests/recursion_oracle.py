"""The recursive program printer, program summaries and structural checks, kept as oracles.

``format_openscad_like`` (was ``repro.csg.pretty``), ``find_loops``
with its list-length helpers and ``function_kinds`` (was
``repro.core.analysis``), and ``equivalent_modulo_reordering``, the
normal form's ``normal`` and ``LeafMatcher.equivalent`` (was
``repro.verify.structural``), as they were before they walked explicit
stacks, moved here verbatim.  They recurse once per node (the structural
checks once per ``Diff`` level), so a chain deeper than Python's recursion
limit raises ``RecursionError``; ``tests/test_recursion_oracle.py`` runs
both designs on random terms and every golden candidate and requires the
same text, the same descriptors, the same function kinds and the same
verdicts.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.analysis import LoopDescriptor
from repro.csg.ops import AFFINE_OPS, BOOLEAN_OPS
from repro.csg.pretty import _format_atom
from repro.geometry.mat import AffineMatrix
from repro.lang.term import Term
from repro.verify.structural import (
    _IDENTITY,
    _SETS,
    EMPTY,
    Boolean,
    Leaf,
    LeafMatcher,
    Node,
    Opaque,
    UnsupportedTerm,
    _collect,
    _flatten_commutative,
    _members,
    _Normalizer,
    _set_op,
)

# ---------------------------------------------------------------------------
# Printer (was repro.csg.pretty)
# ---------------------------------------------------------------------------


def format_openscad_like(term: Term, *, indent: int = 0, width: int = 72) -> str:
    """Render a term in the paper's ``Op (arg, arg, ...)`` notation."""
    if term.is_leaf:
        return _format_atom(term)
    args = [format_openscad_like(c, indent=indent + 2, width=width) for c in term.children]
    single_line = f"{term.op} ({', '.join(args)})"
    if len(single_line) + indent <= width and "\n" not in single_line:
        return single_line
    pad = " " * (indent + 2)
    joined = (",\n" + pad).join(args)
    return f"{term.op}\n{' ' * indent}( {joined})"


# ---------------------------------------------------------------------------
# Loop finder (was repro.core.analysis)
# ---------------------------------------------------------------------------


def _list_length(term: Term) -> Optional[int]:
    """Static length of a LambdaCAD list expression, when determinable."""
    if term.op == "Nil":
        return 0
    if term.op == "Cons" and len(term.children) == 2:
        tail = _list_length(term.children[1])
        return None if tail is None else tail + 1
    if term.op == "Repeat" and len(term.children) == 2:
        count = term.children[1]
        if count.is_number:
            return int(count.value)
        return None
    if term.op == "Concat" and len(term.children) == 2:
        left = _list_length(term.children[0])
        right = _list_length(term.children[1])
        if left is None or right is None:
            return None
        return left + right
    if term.op in ("Map", "Mapi") and len(term.children) == 2:
        return _list_length(term.children[1])
    if term.op == "Fold":
        # A Fold used as a list producer (map-concatenate convention).
        inner = _loop_list_bound(term)
        return inner
    return None


def _loop_list_bound(fold_term: Term) -> Optional[int]:
    """Length of the index list of a list-producing Fold, if static."""
    if fold_term.op != "Fold" or len(fold_term.children) != 3:
        return None
    return _list_length(fold_term.children[2])


def _is_loop_node(term: Term) -> bool:
    if term.op == "Mapi" or term.op == "Map":
        return True
    if term.op == "Fold" and len(term.children) == 3:
        function = term.children[0]
        # Folds over a boolean operator merely combine a list; folds over a
        # Fun are the nested-loop output shape and count as loops.
        return function.op == "Fun"
    return False


def _loop_bound(term: Term) -> Optional[int]:
    if term.op in ("Map", "Mapi"):
        return _list_length(term.children[1])
    if term.op == "Fold":
        return _list_length(term.children[2])
    return None


def find_loops(term: Term) -> List[LoopDescriptor]:
    """Find every outermost loop nest in a program.

    A nest is an outermost loop node together with the chain of loop nodes
    directly nested inside it (through its function body or its list
    argument); sibling nests are reported separately.
    """
    nests: List[LoopDescriptor] = []

    def chain_bounds(node: Term) -> Tuple[int, ...]:
        bounds: Tuple[int, ...] = ()
        bound = _loop_bound(node)
        if bound is not None:
            bounds = (bound,)
        # A Mapi whose list is itself a Map/Mapi (the Fig. 10 nested-Mapi
        # chain) iterates the *same* index space as the inner combinator — it
        # adds a transformation layer, not a loop dimension — so only the
        # innermost of such a chain contributes a bound.
        if node.op in ("Map", "Mapi") and len(node.children) == 2 and node.children[1].op in ("Map", "Mapi"):
            bounds = ()
        # Nested loops appear either inside the function body (Fold-of-Fun
        # nested loops) or as the list argument (nested Mapis).
        nested: List[Tuple[int, ...]] = []
        for child in node.children:
            nested.append(descend(child))
        best_nested = max(nested, key=len, default=())
        return bounds + best_nested

    def descend(node: Term) -> Tuple[int, ...]:
        if _is_loop_node(node):
            return chain_bounds(node)
        best: Tuple[int, ...] = ()
        for child in node.children:
            candidate = descend(child)
            if len(candidate) > len(best):
                best = candidate
        return best

    def walk(node: Term) -> None:
        if _is_loop_node(node):
            nests.append(LoopDescriptor(bounds=chain_bounds(node)))
            return
        for child in node.children:
            walk(child)

    walk(term)
    # Drop degenerate descriptors with no static bound information.
    return [n for n in nests if n.bounds]


# ---------------------------------------------------------------------------
# Function kinds (was repro.core.analysis)
# ---------------------------------------------------------------------------


def function_kinds(term: Term) -> List[str]:
    """The closed-form function classes used in a program's loop bodies.

    ``theta`` for trigonometric bodies, ``d2`` when an index is multiplied by
    itself, ``d1`` for other index arithmetic.
    """
    kinds: List[str] = []

    def body_kind(body: Term) -> Optional[str]:
        has_index = False
        has_trig = False
        has_square = False

        def scan(node: Term, under_mul_operands: Tuple[Term, ...] = ()) -> None:
            nonlocal has_index, has_trig, has_square
            if node.op in ("Sin", "Cos", "Arctan"):
                has_trig = True
            if node.op == "Mul" and len(node.children) == 2:
                left, right = node.children
                if left == right and _mentions_index(left):
                    has_square = True
            if node.is_leaf and isinstance(node.op, str) and node.op in ("i", "j", "k"):
                has_index = True
            for child in node.children:
                scan(child)

        scan(body)
        if not has_index and not has_trig:
            return None
        if has_trig:
            return "theta"
        if has_square:
            return "d2"
        return "d1"

    def _mentions_index(node: Term) -> bool:
        return any(
            sub.is_leaf and isinstance(sub.op, str) and sub.op in ("i", "j", "k")
            for sub in node.subterms()
        )

    for sub in term.subterms():
        if sub.op == "Fun" and len(sub.children) >= 2:
            kind = body_kind(sub.children[-1])
            if kind is not None and kind not in kinds:
                kinds.append(kind)
    return kinds


# ---------------------------------------------------------------------------
# Structural checks (was repro.verify.structural)
# ---------------------------------------------------------------------------


def equivalent_modulo_reordering(a: Term, b: Term, epsilon: float = 1e-6) -> bool:
    """Equality up to reordering (and re-association) of Union/Inter operands."""
    if a.is_number and b.is_number:
        return abs(float(a.value) - float(b.value)) <= epsilon

    if a.op != b.op:
        return False

    if a.op in _SETS:
        left = _flatten_commutative(a, str(a.op))
        right = _flatten_commutative(b, str(a.op))
        if len(left) != len(right):
            return False
        remaining = list(right)
        for operand in left:
            match_index = None
            for index, candidate in enumerate(remaining):
                if equivalent_modulo_reordering(operand, candidate, epsilon):
                    match_index = index
                    break
            if match_index is None:
                return False
            remaining.pop(match_index)
        return True

    if len(a.children) != len(b.children):
        return False
    return all(
        equivalent_modulo_reordering(x, y, epsilon)
        for x, y in zip(a.children, b.children)
    )


class RecursiveNormalizer(_Normalizer):
    def normal(self, term: Term, matrix: AffineMatrix) -> Node:
        term, matrix = self._peel(term, matrix)
        op = term.op
        if op in AFFINE_OPS and len(term.children) == 4:  # a singular Scale
            return Opaque(matrix @ self._layer(term), self.normal(term.children[3], _IDENTITY))
        if op in _SETS and len(term.children) == 2:
            return self._set(op, [(term, matrix)])
        if op == "Diff" and len(term.children) == 2:
            base = self.normal(term.children[0], matrix)
            removed = self.normal(term.children[1], matrix)
            if base is EMPTY or removed is EMPTY:
                return base
            return Boolean("Diff", (base, removed))
        if term.is_leaf and isinstance(op, str) and op not in AFFINE_OPS + BOOLEAN_OPS:
            if op == "Empty":
                return EMPTY
            return Leaf("Cube" if op == "Unit" else op, matrix)
        raise UnsupportedTerm(f"not a flat CSG solid: {op!r}")

    def _set(self, op: str, pending: List[Tuple[Term, AffineMatrix]]) -> Node:
        nodes: List[Node] = []
        while pending:
            term, matrix = self._peel(*pending.pop())
            if term.op == op and len(term.children) == 2:
                pending.append((term.children[1], matrix))
                pending.append((term.children[0], matrix))
            else:
                nodes.append(self.normal(term, matrix))
        return _collect(op, nodes)


class RecursiveLeafMatcher(LeafMatcher):
    def terms_equivalent(self, a: Term, b: Term) -> bool:
        normalizer = RecursiveNormalizer()
        try:
            left, right = normalizer.normal(a, _IDENTITY), normalizer.normal(b, _IDENTITY)
        except UnsupportedTerm:
            return False
        return self.equivalent(left, right)

    def equivalent(self, a: Node, b: Node) -> bool:
        op = _set_op(a) or _set_op(b)
        if op is not None:
            left, right = _members(a, op), _members(b, op)
            return self._covers(left, right) and self._covers(right, left)
        if type(a) is not type(b):
            return False
        if isinstance(a, Leaf):
            self.compared += 1
            return a.name == b.name and self._close(a.matrix, b.matrix)
        if isinstance(a, Opaque):
            return self._close(a.matrix, b.matrix) and self.equivalent(a.child, b.child)
        return all(self.equivalent(x, y) for x, y in zip(a.operands, b.operands))

    def _covers(self, operands: Tuple[Node, ...], candidates: Tuple[Node, ...]) -> bool:
        buckets = {}
        for candidate in candidates:
            slot = self._slot(candidate)
            if slot is not None:
                buckets.setdefault(slot, []).append(candidate)
        for operand in operands:
            slot = self._slot(operand)
            if slot is None or not any(
                self.equivalent(operand, candidate)
                for near in (slot, slot - 1, slot + 1)
                for candidate in buckets.get(near, ())
            ):
                return False
        return True
