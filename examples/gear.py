#!/usr/bin/env python3
"""The gear case study (paper Figs. 1, 3, 4).

Starting from the ~300-line flat CSG of a 60-tooth spur gear, Szalinski
synthesizes a ~16-line LambdaCAD program whose loop exposes the tooth count.
This example also exercises the rest of the toolchain the paper describes:
the synthesized program is unrolled back to flat CSG (translation
validation) and rendered to OpenSCAD, whose source is flattened back and
checked against the input (OpenSCAD turns it into a mesh for printing).

Run with:  python examples/gear.py [tooth_count]
"""

import sys
from pathlib import Path

from repro import SynthesisConfig, synthesize
from repro.benchsuite.models import gear_model
from repro.csg.metrics import measure
from repro.csg.pretty import format_openscad_like, line_count
from repro.scad.emit import emit_openscad
from repro.scad.flatten import flatten_source
from repro.verify.validate import validate_synthesis


def main() -> None:
    teeth = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    flat = gear_model(teeth=teeth)
    input_metrics = measure(flat)
    print(f"Gear with {teeth} teeth: flat CSG has {input_metrics.nodes} AST nodes, "
          f"{input_metrics.primitives} primitives, ~{line_count(flat)} lines")

    result = synthesize(flat, SynthesisConfig())
    best = result.best_structured() or result.best
    output_metrics = result.output_metrics()

    print(f"\nSynthesized in {result.seconds:.1f}s "
          f"(structured program at rank {result.structured_rank()}):")
    print(format_openscad_like(best.term))
    print(f"\n{output_metrics.nodes} AST nodes (~{line_count(best.term)} lines), "
          f"loops {result.loop_summary()}, functions {result.function_summary()}, "
          f"size reduction {result.size_reduction() * 100.0:.0f}%")

    # Translation validation: unroll and compare against the input.
    report = validate_synthesis(flat, best.term)
    print(f"\nValidation: {'OK' if report.valid else 'FAILED'} (check: {report.check})")

    # The downstream fabrication path: OpenSCAD source, which must flatten
    # back to the input.
    out_dir = Path("examples/output")
    out_dir.mkdir(parents=True, exist_ok=True)
    scad_path = out_dir / f"gear_{teeth}.scad"
    scad_path.write_text(emit_openscad(best.term))
    reflattened = validate_synthesis(flat, flatten_source(scad_path.read_text()))
    print(f"\nWrote {scad_path}")
    print(f"Re-flattened .scad: {'OK' if reflattened.valid else 'FAILED'} "
          f"({reflattened.check})")

    # The whole point: retargeting the design is now a one-number edit.
    print("\nTo change the tooth count, edit the single Repeat bound in the "
          "synthesized program — the rotation function follows automatically.")


if __name__ == "__main__":
    main()
