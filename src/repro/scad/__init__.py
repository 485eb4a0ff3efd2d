"""OpenSCAD frontend and backend.

The paper's benchmark pipeline starts from OpenSCAD designs found on
Thingiverse: a translator *flattens* those (loops, variables, modules) into
loop-free CSG for Szalinski to consume, and a second translator renders the
synthesized LambdaCAD back to OpenSCAD so models can be visually validated
and printed.  This package implements both directions for the language
subset the benchmarks need, and the emitted source flattens back to the
program's geometry:

* primitives ``cube``, ``cylinder``, ``sphere`` (with ``center``/``r``/``d``),
  and ``cylinder`` with ``$fn`` 6 as a hexagonal prism;
* transforms ``translate``, ``rotate``, ``scale``;
* booleans ``union``, ``difference``, ``intersection``;
* ``for`` loops over ranges and vectors, variable assignment, arithmetic,
  trigonometric functions, vector literals and indexing;
* user module definitions and instantiations.
"""

from repro.scad.lexer import tokenize, Token, ScadSyntaxError
from repro.scad.parser import parse_scad
from repro.scad.flatten import flatten_scad, flatten_source, ScadEvalError
from repro.scad.emit import emit_openscad

__all__ = [
    "tokenize",
    "Token",
    "ScadSyntaxError",
    "parse_scad",
    "flatten_scad",
    "flatten_source",
    "ScadEvalError",
    "emit_openscad",
]
