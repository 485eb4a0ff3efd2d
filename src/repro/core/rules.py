"""The database of semantics-preserving syntactic rewrites (paper Section 3.2).

The rules fall into the paper's four categories plus the boolean-operator
properties:

* **affine-lifting** — ``T(c) op T(c') { T(c op c')`` for every boolean
  operator and affine transformation (Fig. 8a);
* **affine-reordering** — commuting differently-typed nested affine
  transformations, recomputing their vectors (Fig. 8b);
* **affine-collapsing** — fusing same-typed nested affine transformations
  (Fig. 8c);
* **folds** — introducing ``Fold`` over ``Cons`` lists for chains of a binary
  operator (Fig. 8d);
* **boolean** — unit / idempotence properties of the set operators; the
  expansive associativity/commutativity variants live in their own category
  (``boolean-expansive``) because they grow the e-graph quickly and are not
  needed for the benchmark suite.

Rules whose right-hand sides require arithmetic on the matched vectors
(reordering, collapsing) are :class:`~repro.egraph.rewrite.DynamicRewrite`\\ s
whose appliers read numeric literals out of the matched e-classes and insert
freshly computed ones.  All of them were checked against the matrix semantics
in :mod:`repro.geometry.mat` (see ``tests/test_rules_semantics.py``), which is
the role the computer algebra system plays in the paper.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.rewrite import BaseRewrite, DynamicRewrite, Rewrite, dynamic_rewrite, rewrite
from repro.egraph.pattern import Substitution
from repro.lang.normal import rotate_vector

# ---------------------------------------------------------------------------
# Helpers for dynamic rules
# ---------------------------------------------------------------------------


def numeric_value(egraph: EGraph, class_id: int) -> Optional[float]:
    """The numeric literal represented by an e-class, if there is one."""
    for enode in egraph.nodes(class_id):
        if isinstance(enode.op, (int, float)) and not isinstance(enode.op, bool):
            return float(enode.op)
    return None


def _values(egraph: EGraph, substitution: Substitution, names: Sequence[str]) -> Optional[List[float]]:
    values: List[float] = []
    for name in names:
        value = numeric_value(egraph, substitution[name])
        if value is None:
            return None
        values.append(value)
    return values


def _add_number(egraph: EGraph, value: float) -> int:
    # Round to a fixed decimal grid before inserting: different derivations of
    # the same quantity (e.g. a/s + b/s vs (a+b)/s) otherwise differ by an ULP
    # and would breed an unbounded family of nearly-equal e-classes, blowing
    # up the e-graph.  Nine decimals is far below the solver tolerance.
    value = round(value, 9)
    if value == int(value):
        value = float(int(value))
    return egraph.add_enode(ENode(value))


def _add_affine(
    egraph: EGraph, child: int, *layers: Tuple[str, Sequence[float]]
) -> Optional[int]:
    """Add the affine ``layers`` (``(op, vector)``, innermost first) over ``child``.

    Declines (None) before adding any node when a vector has a non-finite
    component: arithmetic on finite literals can overflow (``1e200 *
    1e200``), and no literal spells the result.
    """
    if not all(math.isfinite(v) for _, vector in layers for v in vector):
        return None
    for op, vector in layers:
        args = tuple(_add_number(egraph, v) for v in vector) + (egraph.find(child),)
        child = egraph.add_enode(ENode(op, args))
    return child


# ---------------------------------------------------------------------------
# Affine lifting (Fig. 8a):  T(c) op T(c')  {  T(c op c')
# ---------------------------------------------------------------------------


def _lifting_rules() -> List[BaseRewrite]:
    rules: List[BaseRewrite] = []
    for boolean in ("Union", "Diff", "Inter"):
        for affine in ("Translate", "Scale", "Rotate"):
            name = f"lift-{affine.lower()}-{boolean.lower()}"
            lhs = (
                f"({boolean} ({affine} ?x ?y ?z ?a) ({affine} ?x ?y ?z ?b))"
            )
            rhs = f"({affine} ?x ?y ?z ({boolean} ?a ?b))"
            rules.append(rewrite(name, lhs, rhs))
    return rules


# ---------------------------------------------------------------------------
# Affine reordering (Fig. 8b)
# ---------------------------------------------------------------------------


#: Axis-aligned rotations: the angle pattern and the axis index that
#: :func:`~repro.lang.normal.rotate_vector` takes.
_AXIS_ROTATIONS = {
    "z": ("0 0 ?t", 2),
    "y": ("0 ?t 0", 1),
    "x": ("?t 0 0", 0),
}


def _reordering_rules() -> List[BaseRewrite]:
    rules: List[BaseRewrite] = []

    # Uniform scale commutes with any rotation (purely syntactic).
    rules.append(
        rewrite(
            "reorder-uniform-scale-rotate",
            "(Scale ?s ?s ?s (Rotate ?a ?b ?g ?c))",
            "(Rotate ?a ?b ?g (Scale ?s ?s ?s ?c))",
        )
    )

    # The dynamic affine rules below are ``pure``: their appliers read only
    # the numeric *values* of the bound literal classes, which sound merges
    # never change — so once applied, a match can be skipped by the runner's
    # apply-phase dedup ledger (see repro.egraph.rewrite.DynamicRewrite).

    # Scale over Translate: scale(s, translate(v, c)) = translate(s*v, scale(s, c)).
    def scale_translate(egraph: EGraph, _class_id: int, sub: Substitution) -> Optional[int]:
        values = _values(egraph, sub, ["sx", "sy", "sz", "tx", "ty", "tz"])
        if values is None:
            return None
        sx, sy, sz, tx, ty, tz = values
        return _add_affine(
            egraph, sub["c"], ("Scale", (sx, sy, sz)), ("Translate", (sx * tx, sy * ty, sz * tz))
        )

    rules.append(
        dynamic_rewrite(
            "reorder-scale-translate",
            "(Scale ?sx ?sy ?sz (Translate ?tx ?ty ?tz ?c))",
            scale_translate,
            pure=True,
        )
    )

    # Translate over Scale: translate(v, scale(s, c)) = scale(s, translate(v/s, c)).
    def translate_scale(egraph: EGraph, _class_id: int, sub: Substitution) -> Optional[int]:
        values = _values(egraph, sub, ["tx", "ty", "tz", "sx", "sy", "sz"])
        if values is None:
            return None
        tx, ty, tz, sx, sy, sz = values
        if sx == 0.0 or sy == 0.0 or sz == 0.0:
            return None
        return _add_affine(
            egraph, sub["c"], ("Translate", (tx / sx, ty / sy, tz / sz)), ("Scale", (sx, sy, sz))
        )

    rules.append(
        dynamic_rewrite(
            "reorder-translate-scale",
            "(Translate ?tx ?ty ?tz (Scale ?sx ?sy ?sz ?c))",
            translate_scale,
            pure=True,
        )
    )

    # Axis-aligned Rotate over Translate and Translate over Rotate.
    for axis, (angle_pattern, axis_index) in _AXIS_ROTATIONS.items():

        def rotate_translate(
            egraph: EGraph,
            _class_id: int,
            sub: Substitution,
            axis_index=axis_index,
            axis=axis,
        ) -> Optional[int]:
            values = _values(egraph, sub, ["t", "tx", "ty", "tz"])
            if values is None:
                return None
            theta, tx, ty, tz = values
            rotated = rotate_vector(axis_index, theta, (tx, ty, tz))
            angle_vector = {
                "z": (0.0, 0.0, theta),
                "y": (0.0, theta, 0.0),
                "x": (theta, 0.0, 0.0),
            }[axis]
            return _add_affine(
                egraph, sub["c"], ("Rotate", angle_vector), ("Translate", rotated)
            )

        rules.append(
            dynamic_rewrite(
                f"reorder-rotate{axis}-translate",
                f"(Rotate {angle_pattern} (Translate ?tx ?ty ?tz ?c))",
                rotate_translate,
                pure=True,
            )
        )

        def translate_rotate(
            egraph: EGraph,
            _class_id: int,
            sub: Substitution,
            axis_index=axis_index,
            axis=axis,
        ) -> Optional[int]:
            values = _values(egraph, sub, ["tx", "ty", "tz", "t"])
            if values is None:
                return None
            tx, ty, tz, theta = values
            # translate(v) . rotate(theta) = rotate(theta) . translate(R(-theta) v)
            unrotated = rotate_vector(axis_index, -theta, (tx, ty, tz))
            angle_vector = {
                "z": (0.0, 0.0, theta),
                "y": (0.0, theta, 0.0),
                "x": (theta, 0.0, 0.0),
            }[axis]
            return _add_affine(
                egraph, sub["c"], ("Translate", unrotated), ("Rotate", angle_vector)
            )

        rules.append(
            dynamic_rewrite(
                f"reorder-translate-rotate{axis}",
                f"(Translate ?tx ?ty ?tz (Rotate {angle_pattern} ?c))",
                translate_rotate,
                pure=True,
            )
        )

    return rules


# ---------------------------------------------------------------------------
# Affine collapsing (Fig. 8c)
# ---------------------------------------------------------------------------


def _collapsing_rules() -> List[BaseRewrite]:
    rules: List[BaseRewrite] = []

    def collapse_translate(egraph: EGraph, _class_id: int, sub: Substitution) -> Optional[int]:
        values = _values(egraph, sub, ["x2", "y2", "z2", "x1", "y1", "z1"])
        if values is None:
            return None
        x2, y2, z2, x1, y1, z1 = values
        return _add_affine(egraph, sub["c"], ("Translate", (x1 + x2, y1 + y2, z1 + z2)))

    rules.append(
        dynamic_rewrite(
            "collapse-translate",
            "(Translate ?x2 ?y2 ?z2 (Translate ?x1 ?y1 ?z1 ?c))",
            collapse_translate,
            pure=True,
        )
    )

    def collapse_scale(egraph: EGraph, _class_id: int, sub: Substitution) -> Optional[int]:
        values = _values(egraph, sub, ["x2", "y2", "z2", "x1", "y1", "z1"])
        if values is None:
            return None
        x2, y2, z2, x1, y1, z1 = values
        return _add_affine(egraph, sub["c"], ("Scale", (x1 * x2, y1 * y2, z1 * z2)))

    rules.append(
        dynamic_rewrite(
            "collapse-scale",
            "(Scale ?x2 ?y2 ?z2 (Scale ?x1 ?y1 ?z1 ?c))",
            collapse_scale,
            pure=True,
        )
    )

    for axis, (angle_pattern, _factory) in _AXIS_ROTATIONS.items():
        outer_pattern = angle_pattern.replace("?t", "?t2")
        inner_pattern = angle_pattern.replace("?t", "?t1")

        def collapse_rotate(
            egraph: EGraph, _class_id: int, sub: Substitution, axis=axis
        ) -> Optional[int]:
            values = _values(egraph, sub, ["t2", "t1"])
            if values is None:
                return None
            total = values[0] + values[1]
            angle_vector = {
                "z": (0.0, 0.0, total),
                "y": (0.0, total, 0.0),
                "x": (total, 0.0, 0.0),
            }[axis]
            return _add_affine(egraph, sub["c"], ("Rotate", angle_vector))

        rules.append(
            dynamic_rewrite(
                f"collapse-rotate-{axis}",
                f"(Rotate {outer_pattern} (Rotate {inner_pattern} ?c))",
                collapse_rotate,
                pure=True,
            )
        )

    return rules


# ---------------------------------------------------------------------------
# Fold introduction (Fig. 8d)
# ---------------------------------------------------------------------------


def _fold_rules() -> List[BaseRewrite]:
    rules: List[BaseRewrite] = []
    for boolean in ("Union", "Inter"):
        lower = boolean.lower()
        rules.append(
            rewrite(
                f"fold-intro-{lower}",
                f"({boolean} ?x ?y)",
                f"(Fold {boolean} Empty (Cons ?x (Cons ?y Nil)))",
            )
        )
        rules.append(
            rewrite(
                f"fold-cons-{lower}",
                f"({boolean} ?x (Fold {boolean} ?acc ?zs))",
                f"(Fold {boolean} ?acc (Cons ?x ?zs))",
            )
        )
        rules.append(
            rewrite(
                f"fold-snoc-{lower}",
                f"({boolean} (Fold {boolean} ?acc ?zs) ?x)",
                f"(Fold {boolean} ?acc (Concat ?zs (Cons ?x Nil)))",
            )
        )
        rules.append(_chain_fold_rule(boolean))
    return rules


def _walk_chain(egraph: EGraph, first: int, rest: int, boolean: str) -> List[int]:
    """The element classes of the right-nested ``boolean`` chain at a match.

    Follows, from ``rest`` downward, the first ``(boolean _ _)`` e-node of
    each class, accumulating left operands until a class without one (the
    final element), a cycle, or the length cap.  This walk is the *only*
    e-graph state the chain-fold applier reads beyond the match itself, so
    its result doubles as the rule's dedup content key.
    """
    elements: List[int] = [egraph.find(first)]
    current = egraph.find(rest)
    visited = {current}
    while True:
        next_pair = None
        for enode in egraph.nodes(current):
            if enode.op == boolean and len(enode.args) == 2:
                next_pair = (egraph.find(enode.args[0]), egraph.find(enode.args[1]))
                break
        if next_pair is None:
            break
        elements.append(next_pair[0])
        current = next_pair[1]
        if current in visited or len(elements) > 10_000:
            break
        visited.add(current)
    elements.append(current)
    return elements


def _chain_fold_rule(boolean: str) -> DynamicRewrite:
    """Fold an entire right-nested chain of a binary operator in one firing.

    The small-step rules above fold a chain one element per saturation
    iteration; a 60-tooth gear would therefore need 60 iterations.  This
    big-step rule is derivable from them (it is the composition of one
    fold-intro with repeated fold-cons firings) and exists purely so the
    engine reaches the fully folded view within a couple of iterations.

    The rule is impure — the walk enumerates whatever chain e-nodes
    currently exist — but its ``content_key`` (the walked element list)
    captures everything the applier reads, so the runner's ledger can skip
    the per-epoch rescan of chains whose class contents are unchanged.
    """

    def applier(egraph: EGraph, _class_id: int, sub: Substitution) -> Optional[int]:
        elements = _walk_chain(egraph, sub["x"], sub["y"], boolean)
        if len(elements) < 3:
            return None  # the small-step rules cover pairs
        spine = egraph.add_enode(ENode("Nil"))
        for element in reversed(elements):
            spine = egraph.add_enode(ENode("Cons", (element, spine)))
        function = egraph.add_enode(ENode(boolean))
        accumulator = egraph.add_enode(ENode("Empty"))
        return egraph.add_enode(ENode("Fold", (function, accumulator, spine)))

    def content_key(egraph: EGraph, _class_id: int, sub: Substitution) -> tuple:
        return tuple(_walk_chain(egraph, sub["x"], sub["y"], boolean))

    return dynamic_rewrite(
        f"fold-chain-{boolean.lower()}",
        f"({boolean} ?x ?y)",
        applier,
        content_key=content_key,
    )


# ---------------------------------------------------------------------------
# Boolean-operator properties
# ---------------------------------------------------------------------------


def _boolean_rules() -> List[BaseRewrite]:
    return [
        rewrite("union-empty-right", "(Union ?x Empty)", "?x"),
        rewrite("union-empty-left", "(Union Empty ?x)", "?x"),
        rewrite("diff-empty-right", "(Diff ?x Empty)", "?x"),
        rewrite("diff-empty-left", "(Diff Empty ?x)", "Empty"),
        rewrite("union-idempotent", "(Union ?x ?x)", "?x"),
        rewrite("inter-idempotent", "(Inter ?x ?x)", "?x"),
    ]


def _boolean_expansive_rules() -> List[BaseRewrite]:
    return [
        rewrite(
            "union-assoc",
            "(Union (Union ?a ?b) ?c)",
            "(Union ?a (Union ?b ?c))",
        ),
        rewrite("union-comm", "(Union ?a ?b)", "(Union ?b ?a)"),
        rewrite("inter-comm", "(Inter ?a ?b)", "(Inter ?b ?a)"),
        rewrite(
            "inter-assoc",
            "(Inter (Inter ?a ?b) ?c)",
            "(Inter ?a (Inter ?b ?c))",
        ),
    ]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def rules_by_category() -> Dict[str, List[BaseRewrite]]:
    """All rewrite rules grouped by category."""
    return {
        "affine-lifting": _lifting_rules(),
        "affine-reordering": _reordering_rules(),
        "affine-collapsing": _collapsing_rules(),
        "folds": _fold_rules(),
        "boolean": _boolean_rules(),
        "boolean-expansive": _boolean_expansive_rules(),
    }


def default_rules(categories: Optional[Sequence[str]] = None) -> List[BaseRewrite]:
    """The rule set used by the synthesis pipeline.

    ``categories`` defaults to every category except ``boolean-expansive``.
    """
    by_category = rules_by_category()
    if categories is None:
        categories = [c for c in by_category if c != "boolean-expansive"]
    rules: List[BaseRewrite] = []
    for category in categories:
        if category not in by_category:
            raise KeyError(f"unknown rule category {category!r}")
        rules.extend(by_category[category])
    return rules


def all_rules() -> List[BaseRewrite]:
    """Every rule in the database, including the expansive boolean rules."""
    rules: List[BaseRewrite] = []
    for category_rules in rules_by_category().values():
        rules.extend(category_rules)
    return rules
