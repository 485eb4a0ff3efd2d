#!/usr/bin/env python3
"""Solution diversity: the hex-cell generator (paper Figs. 18 and 19).

The 2x2 pattern of cells removed from a plate admits two useful structured
descriptions: a doubly-nested loop (best for adding rows/columns) and a
trigonometric one (the centres lie on a circle — best for turning the grid
into a flower pattern).  This example runs Szalinski, shows the candidates it
returns, and then performs both of the paper's edits programmatically:
growing the grid, and generating a 10-cell flower from the trigonometric
form.

Run with:  python examples/hexcell.py
"""

from repro import SynthesisConfig, synthesize, unroll
from repro.benchsuite.models import circular_pattern, fig18_hexcell_plate
from repro.cad.build import add, fold_union, fun, mapi, mul, repeat, sin, translate_expr
from repro.csg.build import diff, scale, unit
from repro.csg.metrics import measure
from repro.csg.pretty import format_openscad_like
from repro.lang.term import Term
from repro.verify.geometric import occupancy_agreement


def trig_hexcell(count: int, step_degrees: float) -> Term:
    """The Fig. 19 program: cells placed by a sine/cosine closed form."""
    cells = mapi(
        fun(
            ("i", "c"),
            translate_expr(
                add(10.0, mul(7.07, sin(add(mul(step_degrees, Term("i")), 315.0)))),
                add(10.0, mul(7.07, sin(add(mul(step_degrees, Term("i")), 225.0)))),
                0.0,
                Term("c"),
            ),
        ),
        repeat(unit(), count),
    )
    plate = scale(20.0, 20.0, 3.0, unit())
    return diff(plate, fold_union(cells))


def main() -> None:
    flat = fig18_hexcell_plate(rows=2, columns=2)
    print("Input: plate with a 2x2 pattern of cells "
          f"({measure(flat).nodes} AST nodes)\n")

    result = synthesize(flat, SynthesisConfig(top_k=5))
    print(f"Top-{len(result.candidates)} candidates ({result.seconds:.2f}s):")
    for candidate in result.candidates:
        marker = "loops" if candidate.has_loops else "flat "
        print(f"  rank {candidate.rank}  cost {candidate.cost:6.1f}  [{marker}]")
    best = result.best_structured() or result.best
    print("\nBest structured candidate:")
    print(format_openscad_like(best.term))

    # Edit 1 (loop form): grow the grid to 2x3 by regenerating with new bounds.
    bigger = fig18_hexcell_plate(rows=2, columns=3)
    print(f"\nEdit 1 - grow the grid to 2x3: {measure(bigger).nodes} nodes of flat CSG "
          "would need hand-editing; in the loop form it is a one-number change.")

    # Edit 2 (trigonometric form): a 10-cell flower pattern (Fig. 19 right).
    flower = trig_hexcell(count=10, step_degrees=36.0)
    flower_flat = unroll(flower)
    print("\nEdit 2 - the trigonometric form turned into a 10-cell flower "
          f"(unrolls to {measure(flower_flat).nodes} nodes).")

    # Sanity-check the flower against an explicitly constructed circular pattern.
    reference = diff(
        scale(20.0, 20.0, 3.0, unit()),
        circular_pattern(10, 7.07, unit(), center=(10.0, 10.0, 0.0)),
    )
    report = occupancy_agreement(flower_flat, reference, resolution=20)
    print(f"Geometric agreement with an explicit circular pattern: "
          f"{report.agreement * 100.0:.1f}%")


if __name__ == "__main__":
    main()
