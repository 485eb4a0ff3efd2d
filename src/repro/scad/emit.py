"""Rendering LambdaCAD / CSG programs back to OpenSCAD source.

The paper provides a translation from LambdaCAD to OpenSCAD so synthesized
programs can be rendered and visually compared with the input model.  We do
the same by first unrolling the program to flat CSG (loops become repeated
geometry — OpenSCAD itself would do the same at render time) and then
emitting the corresponding OpenSCAD builtins.  This is the one way from a
synthesized program to something printable: OpenSCAD evaluates the emitted
booleans on solids and exports the mesh a slicer reads.

Primitive canonicalization is inverted: the emitted ``cube``/``cylinder``/
``sphere`` calls are centred, and a ``Hexagon`` becomes a six-sided
cylinder turned so its vertices sit where the reproduction's hexagon has
them, so that re-flattening the emitted source
(:func:`repro.scad.flatten.flatten_source`) yields the same geometry.  A
right-nested ``Union``/``Inter`` chain becomes one block, which the
flattener reads back into the same right-nested chain; so a union of
thousands of parts emits flat text instead of one nesting level per part.
"""

from __future__ import annotations

import math
from typing import List, Tuple, Union

from repro.cad.evaluator import unroll
from repro.lang.term import Term


class EmitError(ValueError):
    """Raised when a term cannot be rendered to OpenSCAD."""


#: One-line renderings of the canonical primitives.  OpenSCAD puts the
#: first vertex of a ``$fn=6`` polygon on +x; the reproduction's hexagon
#: has its vertices at 30 + k*60 degrees, hence the quarter turn
#: (90 = 30 mod 60).
_PRIMITIVES = {
    "Unit": "cube([1, 1, 1], center=true);",
    "Cube": "cube([1, 1, 1], center=true);",
    "Cylinder": "cylinder(h=1, r=1, center=true, $fn=32);",
    "Sphere": "sphere(r=1, $fn=32);",
    "Hexagon": "rotate([0, 0, 90]) cylinder(h=1, r=1, center=true, $fn=6);",
    "Empty": "union() {}",
}

_AFFINE_KEYWORDS = {"Translate": "translate", "Scale": "scale", "Rotate": "rotate"}
_BOOLEAN_KEYWORDS = {"Union": "union", "Diff": "difference", "Inter": "intersection"}


def _format_number(value: float) -> str:
    """An integral value without a fraction, any other with every digit
    (``repr`` is the shortest text that reads back as the same float).
    OpenSCAD has no literal for ``inf`` or ``nan``: they raise
    :class:`EmitError`."""
    if not math.isfinite(value):
        raise EmitError(f"cannot emit the non-finite number {value!r} to OpenSCAD")
    if isinstance(value, float) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _operands(term: Term) -> List[Term]:
    """The operands of a block: a ``Union``/``Inter`` spine, or both ``Diff`` sides."""
    if term.op == "Diff":
        return list(term.children)
    operands: List[Term] = []
    current = term
    while current.op == term.op and len(current.children) == 2:
        operands.append(current.children[0])
        current = current.children[1]
    operands.append(current)
    return operands


def _emit(root: Term, lines: List[str]) -> None:
    # Each work item is a term to emit at an indentation level, or a
    # finished line (a block's closing brace) to append when reached.
    pending: List[Union[Tuple[Term, int], str]] = [(root, 0)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        term, indent = item
        pad = "    " * indent
        op = term.op
        if op in _PRIMITIVES and not term.children:
            lines.append(pad + _PRIMITIVES[op])
        elif op == "External":
            lines.append(f"{pad}// external (unsupported) feature elided")
            lines.append(f"{pad}union() {{}}")
        elif op in _AFFINE_KEYWORDS and len(term.children) == 4:
            vector = ", ".join(
                _format_number(float(child.value)) for child in term.children[:3]
            )
            lines.append(f"{pad}{_AFFINE_KEYWORDS[op]}([{vector}])")
            pending.append((term.children[3], indent + 1))
        elif op in _BOOLEAN_KEYWORDS and len(term.children) == 2:
            lines.append(f"{pad}{_BOOLEAN_KEYWORDS[op]}() {{")
            pending.append(f"{pad}}}")
            pending.extend((operand, indent + 1) for operand in reversed(_operands(term)))
        else:
            raise EmitError(f"cannot emit operator {op!r} to OpenSCAD")


def emit_openscad(term: Term, *, header: str = "// generated by the Szalinski reproduction") -> str:
    """Render a CSG or LambdaCAD term as OpenSCAD source text."""
    lines: List[str] = [header]
    _emit(unroll(term), lines)
    return "\n".join(lines) + "\n"
