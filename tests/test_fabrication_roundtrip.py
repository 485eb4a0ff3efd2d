"""The fabrication path is exact: emitted OpenSCAD flattens back to the input.

A synthesized program reaches a printer through
:func:`repro.scad.emit.emit_openscad` and OpenSCAD.  For every pinned top-k
candidate of ``perfbench/golden/table1_topk.json`` (read here, never
written), the emitted source must flatten back
(:func:`repro.scad.flatten.flatten_source`) to a term that validates against
the model's input.  Inputs holding an ``External`` placeholder are left
out: the emitter elides unsupported features, so their text cannot
round-trip.
"""

import json
from pathlib import Path

import pytest

from repro.benchsuite.suite import get_benchmark
from repro.lang.canon import term_from_canonical
from repro.scad.emit import emit_openscad
from repro.scad.flatten import flatten_source
from repro.verify.validate import validate_synthesis

_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "table1_topk.json"
_TOPK = json.loads(_GOLDEN.read_text())


def _has_external(name: str) -> bool:
    return any(t.op == "External" for t in get_benchmark(name).build().subterms())


_EXACT = sorted(name for name in _TOPK if not _has_external(name))


def test_only_models_with_an_external_are_left_out():
    assert sorted(set(_TOPK) - set(_EXACT)) == ["sander", "soldering"]
    assert len(_EXACT) == 14


@pytest.mark.parametrize("name", _EXACT)
def test_every_candidate_round_trips_through_openscad(name):
    model = get_benchmark(name).build()
    candidates = _TOPK[name]
    assert candidates
    for rank, text in enumerate(candidates, start=1):
        source = emit_openscad(term_from_canonical(text))
        report = validate_synthesis(model, flatten_source(source))
        assert report.valid, f"{name} rank {rank}: {report.error or report.check}"
