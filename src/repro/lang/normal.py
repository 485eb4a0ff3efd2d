"""Semantic normalization: the shared canonical-form layer for terms.

Szalinski's premise is that syntactically different CSG programs are often
semantically equal; this module writes that premise down as reusable code.
It provides a pipeline of composable, idempotent passes over
:class:`~repro.lang.term.Term`\\ s — each pass maps semantically equal
spellings of a construct onto one canonical spelling — plus the
longest-first order in which the determinizer tries affine signatures.

The default pipeline (:data:`DEFAULT_PASSES`, applied by :func:`normalize`)
runs, in order:

1. **numeric-literals** — every integral-valued float literal becomes the
   int spelling (``1.0`` -> ``1``, ``-0.0`` -> ``0``); non-integral floats
   are untouched (their ``repr`` round-trips exactly).  This mirrors the
   e-graph's :class:`~repro.egraph.symbols.SymbolTable`, which already
   interns ``1`` and ``1.0`` as one symbol.
2. **affine-canonical** — nested affine transformations are rewritten to
   the canonical chain the rewrite rules themselves can derive: adjacent
   same-operator layers are fused (translation vectors added, scale
   factors multiplied, same-axis rotation angles summed — Fig. 8c),
   ``Scale`` and axis-aligned ``Rotate`` layers are commuted below
   ``Translate`` with their vectors recomputed (Fig. 8b), and identity
   layers (``Translate 0 0 0`` / ``Scale 1 1 1`` / ``Rotate 0 0 0``) are
   dropped.  Arithmetic lands on the same 9-decimal grid the dynamic
   rules' ``_add_number`` uses, so normalization never invents values the
   e-graph would not.
3. **alpha-rename** — ``Fun``-bound parameter names (and their
   ``(Var name)`` references) become positional de Bruijn-style names
   ``$0``, ``$1``, ... numbered by binder position, so alpha-equivalent
   programs render identically.  Free names — primitives, loop-free
   symbols, ``External`` placeholders — are never touched: two differently
   named opaque solids are semantically distinct.
4. **commutative-sort** — chains of the commutative set operators
   (``Union``/``Inter``) are flattened through nested same-operator
   applications, sorted under a total term order (:func:`term_order_key`:
   numeric leaves by value, symbols lexically, composites by operator then
   children), and rebuilt right-nested (the ``union_all`` shape the
   fold-introduction rules look for).  Ordering numerals *by value* rather
   than by rendered text matters: lexicographic text puts ``10`` before
   ``2``, which scrambles the arithmetic progressions the loop solvers
   read off element chains.  ``Diff`` is not commutative and is left
   alone.

The pass *order* is what makes the whole pipeline idempotent, not just
each pass: alpha-renaming runs before the sort so operand order is decided
by names no later pass will change (binder numbering depends only on
``Fun`` nesting depth, never on operand order inside a body, so sorting
cannot un-canonicalize the names).  ``tests/test_normal.py`` pins
idempotence of every pass and of the pipeline, plus semantics
preservation over the bundled models.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import is_
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.lang.term import Term, _term

#: Affine transformation operators: three numeric arguments plus a child.
#: This is the vocabulary's single source of truth — ``repro.csg.ops``
#: re-exports it.
AFFINE_OPS: Tuple[str, ...] = ("Translate", "Scale", "Rotate")

#: The commutative binary set operators (``Diff`` is order-sensitive).
COMMUTATIVE_OPS: Tuple[str, ...] = ("Union", "Inter")

#: Prefix of the canonical (de Bruijn-style) bound-parameter names.  The
#: ``$`` sigil cannot appear in names produced by the OpenSCAD frontend or
#: the loop-inference components, so renaming into this namespace cannot
#: capture a free program variable.
CANONICAL_PARAM_PREFIX = "$"

#: Identity argument vectors per affine operator (dropping the layer is a
#: semantic no-op).
_IDENTITY_VECTOR: Dict[str, Tuple[float, float, float]] = {
    "Translate": (0.0, 0.0, 0.0),
    "Scale": (1.0, 1.0, 1.0),
    "Rotate": (0.0, 0.0, 0.0),
}


# ---------------------------------------------------------------------------
# Numeric spelling
# ---------------------------------------------------------------------------


def canonical_number_value(value: Union[int, float]) -> Union[int, float]:
    """The canonical spelling of a numeric value: int when integral.

    ``1.0`` -> ``1``, ``-0.0`` -> ``0``, ``2.5`` -> ``2.5``.  Mirrors the
    e-graph symbol table's ``1 == 1.0`` sharing, so a term and its image in
    the e-graph agree about which literals are the same.
    """
    if isinstance(value, float) and value == int(value) and abs(value) < 1e16:
        return int(value)
    return value


def _grid(value: float) -> Union[int, float]:
    """Round to the dynamic rules' 9-decimal grid, canonically spelled."""
    return canonical_number_value(round(value, 9))


# ---------------------------------------------------------------------------
# Affine-node queries
# ---------------------------------------------------------------------------


def is_affine_node(term: Term) -> bool:
    """True for a structurally well-formed affine application."""
    return term.op in AFFINE_OPS and len(term.children) == 4


def _numeric_vector(term: Term):
    """The (x, y, z) float vector of an affine node, or None if symbolic."""
    values = []
    for child in term.children[:3]:
        op = child.op
        if not isinstance(op, (int, float)):
            return None
        values.append(float(op))
    return tuple(values)


def signature_sort_key(signature: Sequence[str]) -> Tuple[int, Tuple[str, ...]]:
    """Sort key ordering affine signatures longest-first, then lexically.

    Longer signatures expose more layers to the function solvers (a
    ``Translate . Rotate . Scale`` chain gives three solvable layers; its
    collapsed variants give fewer), so the determinizer tries them first.
    """
    signature = tuple(signature)
    return (-len(signature), signature)


# ---------------------------------------------------------------------------
# The pass framework
# ---------------------------------------------------------------------------


class NormalizationPass:
    """One named, idempotent term-to-term transformation."""

    def __init__(self, name: str, fn: Callable[[Term], Term]):
        self.name = name
        self._fn = fn

    def __call__(self, term: Term) -> Term:
        return self._fn(term)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NormalizationPass({self.name!r})"


# -- pass 1: numeric literal unification --------------------------------------


def _numeric_literals(term: Term) -> Term:
    # One int leaf per integral float value within this call.
    ints: Dict[float, Term] = {}

    def unify(node: Term) -> Term:
        op = node.op
        # Ints are canonical already; only a float's spelling can change.
        if isinstance(op, float):
            leaf = ints.get(op)
            if leaf is not None:
                return leaf
            canonical = canonical_number_value(op)
            # ``1.0 == 1`` yet the spellings are distinct terms for the
            # exact tier; rebuild only when the spelling actually changes.
            if type(canonical) is not type(op):
                leaf = ints[op] = Term(canonical)
                return leaf
        return node

    return term.map_bottom_up(unify)


# -- pass 2: affine canonical forms -------------------------------------------


def _is_identity(op: str, vector: Tuple[float, float, float]) -> bool:
    return vector == _IDENTITY_VECTOR[op]


def _rotation_axis(vector: Tuple[float, float, float]):
    """The single active axis index of an axis-aligned rotation, or None."""
    active = [i for i, component in enumerate(vector) if component != 0.0]
    return active[0] if len(active) == 1 else None


def rotate_vector(axis: int, theta: float, vector: Sequence[float]):
    """Rotate ``vector`` by ``theta`` degrees around coordinate ``axis`` (0 = x).

    The rewrite rules that commute an axis-aligned ``Rotate`` with a
    ``Translate`` use this formula too, so normalization and saturation
    compute bit-identical vectors.
    """
    radians = math.radians(theta)
    c, s = math.cos(radians), math.sin(radians)
    x, y, z = vector
    if axis == 0:
        return (x, y * c - z * s, y * s + z * c)
    if axis == 1:
        return (x * c + z * s, y, -x * s + z * c)
    return (x * c - y * s, x * s + y * c, z)


def _affine(child: Term, *layers: Tuple[str, Sequence[float]]) -> Optional[Term]:
    """``child`` under the affine ``layers`` (``(op, vector)``, innermost
    first), or None when a vector has a non-finite component.

    Arithmetic on finite literals can overflow (``1e200 * 1e200``); no
    literal spells the result, so the step declines, as the rule does.
    """
    if not all(math.isfinite(v) for _, vector in layers for v in vector):
        return None
    for op, vector in layers:
        child = Term(op, tuple(Term(_grid(component)) for component in vector) + (child,))
    return child


def _canonical_affine_step(node: Term):
    """One local affine rewrite at ``node``, or None when already canonical.

    Only transformations the rewrite-rule database itself derives (plus
    identity elimination) are performed, so the canonical form stays inside
    the e-classes saturation explores anyway.  A fusion or commute whose
    arithmetic overflows is declined, as its rule declines it.
    """
    if not is_affine_node(node):
        return None
    vector = _numeric_vector(node)
    if vector is None:
        return None
    op = str(node.op)
    child = node.children[3]
    if _is_identity(op, vector):
        return child

    if is_affine_node(child):
        child_vector = _numeric_vector(child)
        if child_vector is not None:
            child_op = str(child.op)
            grandchild = child.children[3]
            # Fig. 8c: fuse adjacent same-operator layers.
            if child_op == op == "Translate":
                return _affine(grandchild, (op, [a + b for a, b in zip(vector, child_vector)]))
            if child_op == op == "Scale":
                return _affine(grandchild, (op, [a * b for a, b in zip(vector, child_vector)]))
            if child_op == op == "Rotate":
                axis = _rotation_axis(vector)
                if axis is not None and axis == _rotation_axis(child_vector):
                    summed = [0.0, 0.0, 0.0]
                    summed[axis] = vector[axis] + child_vector[axis]
                    return _affine(grandchild, (op, summed))
            # Fig. 8b: push Translate outward (the orientations with no
            # division, mirroring reorder-scale-translate and
            # reorder-rotate*-translate).
            if op == "Scale" and child_op == "Translate":
                return _affine(
                    grandchild,
                    ("Scale", vector),
                    ("Translate", [s * t for s, t in zip(vector, child_vector)]),
                )
            if op == "Rotate" and child_op == "Translate":
                axis = _rotation_axis(vector)
                if axis is not None:
                    return _affine(
                        grandchild,
                        ("Rotate", vector),
                        ("Translate", rotate_vector(axis, vector[axis], child_vector)),
                    )
    return None


def _affine_canonical(term: Term) -> Term:
    def step(node: Term) -> Term:
        # Iterate locally: a fused or commuted layer can expose the next
        # opportunity at the same position (e.g. the Translate surfaced by
        # a swap meeting the Translate above it).
        if node.op not in AFFINE_OPS:
            return node
        while True:
            rewritten = _canonical_affine_step(node)
            if rewritten is None:
                return node
            node = rewritten

    # Bottom-up with a local fixpoint at each node handles almost every
    # chain in one traversal; the outer loop catches rewrites that expose
    # work *above* an already-visited position.  Termination: every step
    # either shrinks the term or strictly moves a Translate outward past a
    # non-Translate layer, and no step does the reverse.  A traversal that
    # rewrote nothing returns the term itself (``map_bottom_up`` reuses
    # unchanged nodes), so the no-change test is an identity test.
    for _ in range(term.size() + 8):
        rewritten = term.map_bottom_up(step)
        if rewritten is term or rewritten == term:
            return term
        term = rewritten
    return term  # pragma: no cover - unreachable by the termination measure


# -- pass 3: alpha-renaming of bound parameters --------------------------------


def _alpha_rename(term: Term) -> Term:
    # Renaming happens only under a binder: a term without ``Fun`` is its
    # own image (a ``Var`` outside every binder is free).
    stack = [term]
    while stack:
        node = stack.pop()
        if node.op == "Fun":
            break
        stack.extend(node.children)
    else:
        return term

    def expand(node: Term, env: Dict[str, str], depth: int):
        """The renamed node, or the tasks of its children (a task is a
        renamed term or a ``(child, env, depth)`` still to rename)."""
        kids = node.children
        if not kids:
            return node, None
        if node.op == "Fun" and len(kids) >= 2:
            scope = dict(env)
            tasks: list = []
            level = depth
            for param in kids[:-1]:
                if not param.children and isinstance(param.op, str):
                    canonical = f"{CANONICAL_PARAM_PREFIX}{level}"
                    scope[param.op] = canonical
                    tasks.append(param if param.op == canonical else Term(canonical))
                    level += 1
                else:  # malformed binder; leave it alone
                    tasks.append((param, env, depth))
            tasks.append((kids[-1], scope, level))
            return None, tasks
        if (
            node.op == "Var"
            and len(kids) == 1
            and not kids[0].children
            and isinstance(kids[0].op, str)
        ):
            bound = env.get(kids[0].op)
            if bound is not None and bound != kids[0].op:
                return Term("Var", (Term(bound),)), None
            return node, None
        return None, [(child, env, depth) for child in kids]

    renamed, tasks = expand(term, {}, 0)
    if tasks is None:
        return renamed
    frames = []
    node, pending, done = term, iter(tasks), []
    while True:
        for task in pending:
            if task.__class__ is Term:
                done.append(task)
                continue
            renamed, tasks = expand(*task)
            if tasks is None:
                done.append(renamed)
                continue
            frames.append((node, pending, done))
            node, pending, done = task[0], iter(tasks), []
            break
        else:
            result = _reuse(node, done)
            if not frames:
                return result
            node, pending, done = frames.pop()
            done.append(result)


def _reuse(node: Term, kids: List[Term]) -> Term:
    """``node`` over ``kids``: ``node`` itself when they are its own children."""
    if all(map(is_, kids, node.children)):
        return node
    return _term(node.op, tuple(kids))


# -- pass 4: commutative-operand sorting ---------------------------------------


def term_order_key(term: Term) -> tuple:
    """A total-order sort key over terms.

    Numeric leaves order by value, before everything else; symbols and
    composites order by operator text, then by children.  Key equality
    coincides with term equality up to the ``-0.0``/``0.0``
    identification, so a stable sort under this key is deterministic.

    The key has two levels.  The primary level reads every numeral on a
    2-decimal grid — an order of magnitude above the solvers' default 1e-3
    noise tolerance, so scan noise cannot straddle it — which keeps a noisy
    scanned model (the paper's reverse-engineered inputs) in the row-major
    element order of its *latent* grid positions: deciding on exact values
    would let sub-epsilon noise flip near-equal leading coordinates and
    scramble the arithmetic progressions the solvers read off element
    chains.  The secondary level re-reads the whole term exactly (values,
    then int-before-float spelling), so the order stays total and
    input-order independent — sorting is deterministic and idempotent even
    among terms the grid cannot tell apart.

    Each level reads the term in pre-order as a flat sequence: a numeral
    is ``0, value`` (plus ``0``/``1`` for its int/float spelling at the
    exact level), any other node ``1, operator text, children..., -1``.
    The closing ``-1`` sorts before any child, so the sequences order
    exactly as the nested ``(tag, text, (child keys...))`` tuples they
    spell out.  The key holds the first :data:`_KEY_PREFIX` elements of the
    primary level, which tell almost all operands apart, and a
    :class:`_KeyRest` that compares two whole keys by walking both terms
    when those agree.  So a key costs a bounded walk, however large the
    term (sorting nested chains stays linear), and no comparison recurses.
    """
    return (tuple(islice(_key_elements(term, False), _KEY_PREFIX)), _KeyRest(term))


#: Primary-level elements a sort key spells out eagerly.
_KEY_PREFIX = 32


def _key_elements(term: Term, exact: bool):
    """One level of ``term``'s sort key, element by element (see above)."""
    stack: list = [term]
    while stack:
        node = stack.pop()
        if node is None:
            yield -1
            continue
        op = node.op
        if isinstance(op, (int, float)):
            value = float(op)
            yield 0
            if exact:
                yield value
                yield 0 if isinstance(op, int) else 1
            else:
                yield round(value, 2)
        else:
            yield 1
            yield str(op)
            stack.append(None)
            if node.children:
                stack.extend(reversed(node.children))


class _KeyRest:
    """Both levels of a term's sort key, compared lazily.

    Keys are prefix-free (a term's sequence ends where its root closes), so
    two sequences that agree wherever both have elements are equal.
    """

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    def _compare(self, other: "_KeyRest") -> int:
        for exact in (False, True):
            pairs = zip(_key_elements(self.term, exact), _key_elements(other.term, exact))
            for mine, theirs in pairs:
                if mine is not theirs and mine != theirs:
                    return -1 if mine < theirs else 1
        return 0

    def __eq__(self, other) -> bool:
        return self._compare(other) == 0

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0


def _flatten_chain(term: Term, op) -> List[Term]:
    """All operands of a nested binary ``op`` application, left to right."""
    operands: List[Term] = []
    stack = [term]
    while stack:
        node = stack.pop()
        if node.op == op and len(node.children) == 2:
            stack.append(node.children[1])
            stack.append(node.children[0])
        else:
            operands.append(node)
    return operands


def _is_chain(node: Term) -> bool:
    return node.op in COMMUTATIVE_OPS and len(node.children) == 2


def _right_nested(node: Term, operands: List[Term]) -> Term:
    """``(op o1 (op o2 (... on)))`` for ``node``'s ``op``, reusing its spine.

    A node of ``node``'s right spine is reused at the position where it
    already holds exactly the operand and the rebuilt rest, so a chain that
    is already sorted and right-nested comes back as itself.
    """
    op = node.op
    spine = []
    while node.op == op and len(node.children) == 2:
        spine.append(node)
        node = node.children[1]
    result = operands[-1]
    for index in range(len(operands) - 2, -1, -1):
        operand = operands[index]
        if (
            index < len(spine)
            and spine[index].children[0] is operand
            and spine[index].children[1] is result
        ):
            result = spine[index]
        else:
            result = _term(op, (operand, result))
    return result


def _commutative_sort(term: Term) -> Term:
    # The parts of a node are its children, or — for a commutative chain —
    # the operands of the whole chain, which are sorted once all of them
    # are sorted themselves.
    def parts(node: Term):
        return _flatten_chain(node, node.op) if _is_chain(node) else node.children

    if not term.children:
        return term
    frames = []
    node, pending, done = term, iter(parts(term)), []
    while True:
        for child in pending:
            if child.children:
                frames.append((node, pending, done))
                node, pending, done = child, iter(parts(child)), []
                break
            done.append(child)
        else:
            if _is_chain(node):
                done.sort(key=term_order_key)
                result = _right_nested(node, done)
            else:
                result = _reuse(node, done)
            if not frames:
                return result
            node, pending, done = frames.pop()
            done.append(result)


# ---------------------------------------------------------------------------
# The default pipeline
# ---------------------------------------------------------------------------

NUMERIC_LITERALS = NormalizationPass("numeric-literals", _numeric_literals)
AFFINE_CANONICAL = NormalizationPass("affine-canonical", _affine_canonical)
ALPHA_RENAME = NormalizationPass("alpha-rename", _alpha_rename)
COMMUTATIVE_SORT = NormalizationPass("commutative-sort", _commutative_sort)

#: The full pipeline, in the order the module docstring motivates.
DEFAULT_PASSES: Tuple[NormalizationPass, ...] = (
    NUMERIC_LITERALS,
    AFFINE_CANONICAL,
    ALPHA_RENAME,
    COMMUTATIVE_SORT,
)


def normalize(term: Term, passes: Sequence[NormalizationPass] = DEFAULT_PASSES) -> Term:
    """Apply the normalization pipeline (idempotent as a whole)."""
    for normalization_pass in passes:
        term = normalization_pass(term)
    return term
