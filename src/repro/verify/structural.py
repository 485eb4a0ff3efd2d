"""Structural equivalence of flat CSG terms.

Three checks, cheapest first:

* :func:`terms_equal_modulo_epsilon` — the same tree, numeric literals
  within ``epsilon``;
* :func:`equivalent_modulo_reordering` — the same tree up to the order and
  association of ``Union``/``Inter`` operands;
* :func:`leaf_matrix_equivalent` — the same :func:`leaf_normal_form`: every
  ``Translate``/``Scale``/``Rotate`` pushed down to the primitive it places
  and composed there into one affine matrix, so two spellings of one
  placement (``Scale`` over ``Translate`` or the reverse, an affine layer
  over a ``Union`` or one per operand) compare equal.

No check recurses per level.  A walk over a same-operator
``Union``/``Inter`` spine is a loop, and every other nesting (a ``Diff``
chain, a singular ``Scale``, a set inside a ``Diff``) is a generator that
yields each pair or child it needs to :func:`_run`'s explicit stack,
depth first and left to right as the recursion it replaced.  So a union of
thousands of solids, or holes cut one at a time, is compared without deep
recursion.
"""

from __future__ import annotations

import math
from types import GeneratorType
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.csg.ops import AFFINE_OPS, BOOLEAN_OPS
from repro.geometry.mat import AffineMatrix
from repro.geometry.membership import GeometryError, affine_matrix
from repro.lang.term import Term

_SETS = ("Union", "Inter")


def terms_equal_modulo_epsilon(a: Term, b: Term, epsilon: float = 1e-6) -> bool:
    """Structural equality allowing numeric literals to differ by ``epsilon``."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x.is_number and y.is_number:
            if abs(float(x.value) - float(y.value)) > epsilon:
                return False
            continue
        if x.op != y.op or len(x.children) != len(y.children):
            return False
        pending.extend(zip(x.children, y.children))
    return True


def _flatten_commutative(term: Term, op: str) -> List[Term]:
    """Flatten a nested chain of a commutative operator into its operands."""
    operands: List[Term] = []
    pending = [term]
    while pending:
        current = pending.pop()
        if current.op == op:
            pending.extend(reversed(current.children))
        else:
            operands.append(current)
    return operands


def _run(start: Callable, *request):
    """``start(*request)`` with every nested request answered from a stack.

    ``start`` returns either an answer or a generator that yields the
    requests it needs (argument tuples for ``start``) and receives their
    answers; each generator waits on the stack until its requests return,
    so a nesting of any depth needs no recursion.
    """
    answer = start(*request)
    if not isinstance(answer, GeneratorType):
        return answer
    stack = [answer]
    answer = None
    while True:
        try:
            request = stack[-1].send(answer)
        except StopIteration as finished:
            stack.pop()
            answer = finished.value
            if not stack:
                return answer
            continue
        answer = start(*request)
        if isinstance(answer, GeneratorType):
            stack.append(answer)
            answer = None


def _all_pairs(xs, ys) -> Generator[tuple, bool, bool]:
    """Whether every pair of ``xs`` and ``ys`` matches, asked in order until one does not."""
    for x, y in zip(xs, ys):
        if not (yield x, y):
            return False
    return True


def equivalent_modulo_reordering(a: Term, b: Term, epsilon: float = 1e-6) -> bool:
    """Equality up to reordering (and re-association) of Union/Inter operands.

    Synthesis may legally reorder the operands of commutative boolean
    operators — the list-manipulation step sorts folded lists — so the
    unrolled output can be a permutation of the input's union chain.  ``Diff``
    operands keep their sides.
    """

    def start(x: Term, y: Term):
        if x.is_number and y.is_number:
            return abs(float(x.value) - float(y.value)) <= epsilon
        if x.op != y.op:
            return False
        if x.op in _SETS:
            return _reordered_operands(x, y)
        if len(x.children) != len(y.children):
            return False
        return _all_pairs(x.children, y.children) if x.children else True

    return _run(start, a, b)


def _reordered_operands(a: Term, b: Term) -> Generator[Tuple[Term, Term], bool, bool]:
    """Whether the flattened operands of two same-operator sets match one to one."""
    left = _flatten_commutative(a, str(a.op))
    right = _flatten_commutative(b, str(a.op))
    if len(left) != len(right):
        return False
    remaining = list(right)
    for operand in left:
        match_index = None
        for index, candidate in enumerate(remaining):
            if (yield operand, candidate):
                match_index = index
                break
        if match_index is None:
            return False
        remaining.pop(match_index)
    return True


# -- leaf-matrix normal form ----------------------------------------------------

#: Fixed weights that fold a matrix's 3x4 entries into one scalar, its
#: *anchor*: matrices whose entries differ by at most epsilon have anchors
#: at most ``epsilon * _WEIGHT_SUM`` apart, so operand sets are bucketed by
#: anchor instead of scanned pairwise.
_WEIGHTS = tuple(1.0 + math.sqrt(k) % 1.0 for k in range(2, 14))
_WEIGHT_SUM = sum(_WEIGHTS)


def _entries(matrix: AffineMatrix) -> Tuple[float, ...]:
    return matrix.rows[0] + matrix.rows[1] + matrix.rows[2]


def _anchor(matrix: AffineMatrix) -> float:
    return sum(w * x for w, x in zip(_WEIGHTS, _entries(matrix)))


class Leaf:
    """A primitive (``Unit`` spelled ``Cube``), ``External`` or other named
    solid, placed by the composition of every affine layer above it."""

    __slots__ = ("name", "matrix", "anchor")

    def __init__(self, name: str, matrix: AffineMatrix):
        self.name = name
        self.matrix = matrix
        self.anchor = _anchor(matrix)


class Opaque:
    """A singular ``Scale``: its child's normal form under the accumulated
    matrix.  A singular map does not distribute over ``Inter`` or ``Diff``,
    so nothing is pushed through it."""

    __slots__ = ("matrix", "child", "anchor")

    def __init__(self, matrix: AffineMatrix, child: "Node"):
        self.matrix = matrix
        self.child = child
        self.anchor = _anchor(matrix)


class Boolean:
    """``Union``/``Inter``: an operand set, flattened through affine layers
    (both operators are idempotent, so operand order and multiplicity do not
    matter).  ``Diff``: its two sides, in order."""

    __slots__ = ("op", "operands", "anchor")

    def __init__(self, op: str, operands: Tuple["Node", ...]):
        self.op = op
        self.operands = operands
        # When every operand of each of two sets has an anchor within d of
        # an operand of the other, their least anchors are within d too, so
        # matching sets keep the bound that matching leaves have.
        if op == "Diff":
            self.anchor = operands[0].anchor
        else:
            self.anchor = min((node.anchor for node in operands), default=0.0)


Node = Union[Leaf, Opaque, Boolean]

#: The empty solid: the union of no operands.
EMPTY = Boolean("Union", ())

_IDENTITY = AffineMatrix.identity()


class UnsupportedTerm(ValueError):
    """A term the leaf-matrix normal form cannot represent."""


def leaf_normal_form(term: Term) -> Node:
    """The leaf-matrix normal form of a flat CSG term.

    Affine layers are composed down to the leaves; ``Union``/``Inter`` chains
    become operand sets; ``Diff`` keeps its two sides; ``Empty`` operands
    follow the identities ``x u Empty = x``, ``x n Empty = Empty``,
    ``x - Empty = x`` and ``Empty - x = Empty``.
    Raises :class:`UnsupportedTerm` for anything that is not flat CSG with
    literal vectors.
    """
    return _Normalizer().normal(term, _IDENTITY)


class _Normalizer:
    """Builds normal forms, memoizing each affine layer's matrix by its spelling."""

    def __init__(self):
        self._layers: Dict[tuple, AffineMatrix] = {}

    def _layer(self, term: Term) -> AffineMatrix:
        x, y, z = term.children[:3]
        key = (term.op, x.op, y.op, z.op)
        layer = self._layers.get(key)
        if layer is None:
            try:
                layer = affine_matrix(term)
            except GeometryError as exc:
                raise UnsupportedTerm(str(exc)) from None
            self._layers[key] = layer
        return layer

    def _peel(self, term: Term, matrix: AffineMatrix) -> Tuple[Term, AffineMatrix]:
        """Compose the affine layers on top of ``term``, down to a singular ``Scale``."""
        while term.op in AFFINE_OPS and len(term.children) == 4:
            layer = self._layer(term)
            if term.op == "Scale" and layer.determinant3() == 0.0:
                break
            matrix = layer if matrix is _IDENTITY else matrix @ layer
            term = term.children[3]
        return term, matrix

    def normal(self, term: Term, matrix: AffineMatrix) -> Node:
        """The normal form of ``term`` under ``matrix``, from an explicit stack."""
        return _run(self._start, term, matrix)

    def _start(self, term: Term, matrix: AffineMatrix):
        """A leaf's node, or a generator yielding the children a node needs."""
        term, matrix = self._peel(term, matrix)
        op = term.op
        if op in AFFINE_OPS and len(term.children) == 4:  # a singular Scale
            return self._opaque(term, matrix @ self._layer(term))
        if op in _SETS and len(term.children) == 2:
            return self._set(op, [(term, matrix)])
        if op == "Diff" and len(term.children) == 2:
            return self._diff(term, matrix)
        if term.is_leaf and isinstance(op, str) and op not in AFFINE_OPS + BOOLEAN_OPS:
            if op == "Empty":
                return EMPTY
            return Leaf("Cube" if op == "Unit" else op, matrix)
        raise UnsupportedTerm(f"not a flat CSG solid: {op!r}")

    @staticmethod
    def _opaque(term: Term, matrix: AffineMatrix) -> Generator[tuple, Node, Node]:
        return Opaque(matrix, (yield term.children[3], _IDENTITY))

    @staticmethod
    def _diff(term: Term, matrix: AffineMatrix) -> Generator[tuple, Node, Node]:
        base = yield term.children[0], matrix
        removed = yield term.children[1], matrix
        if base is EMPTY or removed is EMPTY:
            return base
        return Boolean("Diff", (base, removed))

    def _set(
        self, op: str, pending: List[Tuple[Term, AffineMatrix]]
    ) -> Generator[tuple, Node, Node]:
        """The ``op`` set of the pending operands; same-``op`` spines are walked with a loop."""
        nodes: List[Node] = []
        while pending:
            term, matrix = self._peel(*pending.pop())
            if term.op == op and len(term.children) == 2:
                pending.append((term.children[1], matrix))
                pending.append((term.children[0], matrix))
            else:
                nodes.append((yield term, matrix))
        return _collect(op, nodes)


def _collect(op: str, nodes: List[Node]) -> Node:
    """The ``op`` set of ``nodes``: nested ``op`` sets spliced, ``Empty`` applied."""
    operands: List[Node] = []
    for node in nodes:
        if node is EMPTY:
            if op == "Inter":
                return EMPTY
        elif isinstance(node, Boolean) and node.op == op:
            operands.extend(node.operands)
        else:
            operands.append(node)
    if not operands:
        return EMPTY
    if len(operands) == 1:
        return operands[0]
    return Boolean(op, tuple(operands))


class LeafMatcher:
    """Compares leaf-matrix normal forms modulo ``epsilon``.

    Two leaves match when their names agree and every entry of their 3x4
    matrices is within ``epsilon`` in absolute terms.  Two operand sets match
    when every operand of each matches some operand of the other; candidates
    are looked up in buckets of their anchor, not by a quadratic scan.
    ``compared`` counts the leaf pairs compared.
    """

    def __init__(self, epsilon: float = 1e-6):
        self.epsilon = epsilon
        self.compared = 0
        # Matching nodes have anchors at most epsilon * _WEIGHT_SUM apart, so
        # buckets twice that wide hold them in the same or adjacent buckets
        # (at epsilon 0 they have equal anchors, and any width will do).
        self._width = 2.0 * epsilon * _WEIGHT_SUM or 1.0

    def terms_equivalent(self, a: Term, b: Term) -> bool:
        """True when the normal forms of ``a`` and ``b`` match (False if either has none)."""
        normalizer = _Normalizer()
        try:
            left, right = normalizer.normal(a, _IDENTITY), normalizer.normal(b, _IDENTITY)
        except UnsupportedTerm:
            return False
        return self.equivalent(left, right)

    def equivalent(self, a: Node, b: Node) -> bool:
        """Whether two normal forms match, from an explicit stack."""
        return _run(self._start, a, b)

    def _start(self, a: Node, b: Node):
        """The answer for two leaves, or a generator yielding the pairs it needs."""
        op = _set_op(a) or _set_op(b)
        if op is not None:
            # A node that is not an ``op`` set is the set of itself (idempotence).
            return self._sets(_members(a, op), _members(b, op))
        if type(a) is not type(b):
            return False
        if isinstance(a, Leaf):
            self.compared += 1
            return a.name == b.name and self._close(a.matrix, b.matrix)
        if isinstance(a, Opaque):
            return self._close(a.matrix, b.matrix) and _all_pairs((a.child,), (b.child,))
        return _all_pairs(a.operands, b.operands)

    def _sets(
        self, left: Tuple[Node, ...], right: Tuple[Node, ...]
    ) -> Generator[Tuple[Node, Node], bool, bool]:
        return (yield from self._covers(left, right)) and (yield from self._covers(right, left))

    def _close(self, m: AffineMatrix, n: AffineMatrix) -> bool:
        epsilon = self.epsilon
        return all(abs(x - y) <= epsilon for x, y in zip(_entries(m), _entries(n)))

    def _covers(
        self, operands: Tuple[Node, ...], candidates: Tuple[Node, ...]
    ) -> Generator[Tuple[Node, Node], bool, bool]:
        """Every operand matches some candidate."""
        buckets: Dict[int, List[Node]] = {}
        for candidate in candidates:
            slot = self._slot(candidate)
            if slot is not None:
                buckets.setdefault(slot, []).append(candidate)
        for operand in operands:
            slot = self._slot(operand)
            if slot is None:
                return False
            matched = False
            for near in (slot, slot - 1, slot + 1):
                for candidate in buckets.get(near, ()):
                    if (yield operand, candidate):
                        matched = True
                        break
                if matched:
                    break
            if not matched:
                return False
        return True

    def _slot(self, node: Node) -> Optional[int]:
        """The anchor bucket of ``node``; None for an anchor too large to
        bucket or not finite (a node with a non-finite entry matches nothing)."""
        scaled = node.anchor / self._width
        if not math.isfinite(scaled):
            return None
        return math.floor(scaled)


def _set_op(node: Node) -> Optional[str]:
    if isinstance(node, Boolean) and node.op in _SETS:
        return node.op
    return None


def _members(node: Node, op: str) -> Tuple[Node, ...]:
    if isinstance(node, Boolean) and node.op == op:
        return node.operands
    return (node,)


def leaf_matrix_equivalent(a: Term, b: Term, epsilon: float = 1e-6) -> bool:
    """Equality of leaf-matrix normal forms (see :func:`leaf_normal_form`).

    Leaves match when their primitives agree and every entry of their
    composed 3x4 matrices is within ``epsilon``; ``Union``/``Inter`` operand
    sets match in any order and multiplicity; ``Diff`` keeps its sides.
    False for a term with no normal form.
    """
    return LeafMatcher(epsilon).terms_equivalent(a, b)
