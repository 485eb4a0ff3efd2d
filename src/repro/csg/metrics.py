"""Structural metrics over terms — the columns of the paper's Table 1.

Table 1 reports, for each benchmark, the number of AST nodes (#i-ns / #o-ns),
the number of 3D primitive shapes (#i-p / #o-p), and the AST depth (#i-d /
#o-d) of the input and output programs.  This module computes those metrics
for any CSG or LambdaCAD term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.csg.ops import CSG_PRIMITIVES
from repro.lang.term import Term

#: Primitive names counted by the "#p" columns; ``Empty`` is a unit for
#: Union rather than a shape, so it is excluded, matching how the paper
#: counts "3D primitive shapes".
_SHAPE_PRIMITIVES = tuple(name for name in CSG_PRIMITIVES if name != "Empty")


def ast_size(term: Term) -> int:
    """Number of AST nodes (the paper's default cost function)."""
    return term.size()


def ast_depth(term: Term) -> int:
    """Depth of the AST (a leaf counts as depth 1)."""
    return term.depth()


def primitive_count(term: Term) -> int:
    """Number of 3D primitive shape occurrences in the term.

    For structured LambdaCAD programs, a primitive under ``Repeat (p, n)``
    still counts once — that is precisely how the paper's #o-p column shows a
    reduction (e.g. the gear's 63 input primitives become 5 in the output).
    """
    return sum(
        1 for node in term.subterms() if not node.children and node.op in _SHAPE_PRIMITIVES
    )


@dataclass(frozen=True)
class TermMetrics:
    """A bundle of the three structural metrics for one program."""

    nodes: int
    primitives: int
    depth: int

    def size_reduction_vs(self, other: "TermMetrics") -> float:
        """Fractional node-count reduction of ``self`` relative to ``other``.

        ``other`` is the *input*; a positive value means ``self`` is smaller.
        """
        if other.nodes == 0:
            return 0.0
        return 1.0 - self.nodes / other.nodes


def measure(term: Term) -> TermMetrics:
    """Compute all Table 1 structural metrics for a term."""
    return TermMetrics(
        nodes=ast_size(term),
        primitives=primitive_count(term),
        depth=ast_depth(term),
    )
