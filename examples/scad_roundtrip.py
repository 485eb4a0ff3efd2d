#!/usr/bin/env python3
"""Round trip through the whole toolchain: OpenSCAD -> flat CSG -> LambdaCAD -> OpenSCAD.

This mirrors the paper's evaluation setup end to end: a Thingiverse-style
OpenSCAD design with loops is flattened to loop-free CSG (what a mesh
decompiler would give you), Szalinski re-discovers the loops, the result is
validated by unrolling, and finally the program is emitted back to OpenSCAD
(which renders it for printing) and the emitted source is flattened again
and checked against the input.

Run with:  python examples/scad_roundtrip.py
"""

from pathlib import Path

from repro import SynthesisConfig, synthesize
from repro.csg.metrics import measure
from repro.csg.pretty import format_openscad_like
from repro.scad.emit import emit_openscad
from repro.scad.flatten import flatten_source
from repro.verify.validate import validate_synthesis

DESIGN = """
// A connector strip: a base plate with 9 evenly spaced pin holes.
pin_count = 9;
difference() {
    cube([100, 20, 8]);
    for (i = [0 : pin_count - 1])
        translate([8 + i * 10.5, 10, -1])
            cylinder(h = 10, r = 2.5);
}
"""


def main() -> None:
    # OpenSCAD -> flat CSG (the paper's flattening translator).
    flat = flatten_source(DESIGN)
    print(f"Flattened OpenSCAD design: {measure(flat).nodes} AST nodes, "
          f"{measure(flat).primitives} primitives")

    # Flat CSG -> LambdaCAD (Szalinski).
    result = synthesize(flat, SynthesisConfig())
    best = result.best_structured() or result.best
    print(f"\nSynthesized ({result.seconds:.2f}s), loops {result.loop_summary()}:")
    print(format_openscad_like(best.term))

    # Validation: unroll and compare.
    report = validate_synthesis(flat, best.term)
    print(f"\nValidation: {'OK' if report.valid else 'FAILED'}")

    # LambdaCAD -> OpenSCAD, flattened back and compared with the input.
    out_dir = Path("examples/output")
    out_dir.mkdir(parents=True, exist_ok=True)
    scad_path = out_dir / "connector.scad"
    scad_path.write_text(emit_openscad(best.term))
    reflattened = validate_synthesis(flat, flatten_source(scad_path.read_text()))
    print(f"\nWrote {scad_path}")
    print(f"Re-flattened .scad: {'OK' if reflattened.valid else 'FAILED'} "
          f"({reflattened.check})")


if __name__ == "__main__":
    main()
