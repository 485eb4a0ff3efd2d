"""Section 6.4 — handling noisy (mesh-decompiled) inputs.

The paper fixes epsilon at 0.001 and reports that structure is still
recovered from decompiler output.  This benchmark sweeps the injected noise
magnitude around that tolerance: inside it, loops are recovered and the
output stays valid; far beyond it, Szalinski degrades gracefully to a
(correct) flat program rather than inventing wrong structure.
"""

import pytest

from repro.benchsuite.models import gear_model, linear_array
from repro.benchsuite.noise import add_decompiler_noise
from repro.csg.build import scale, unit
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.verify.validate import validate_synthesis

pytestmark = pytest.mark.table1


def _noisy_array(magnitude: float):
    clean = linear_array(8, (5.0, 0.0, 0.0), scale(2.0, 3.0, 1.0, unit()))
    return add_decompiler_noise(clean, magnitude=magnitude, seed=11)


class TestNoiseWithinTolerance:
    @pytest.mark.parametrize("magnitude", [0.0, 1e-5, 1e-4, 5e-4])
    def test_structure_recovered(self, magnitude):
        flat = _noisy_array(magnitude)
        result = synthesize(flat, SynthesisConfig(epsilon=1e-3))
        assert result.exposes_structure()
        assert result.loop_summary() == "n1,8"
        assert validate_synthesis(flat, result.output_term(), epsilon=2e-3).valid

    def test_noisy_gear(self):
        flat = add_decompiler_noise(gear_model(teeth=24), magnitude=4e-4, seed=3)
        result = synthesize(flat, SynthesisConfig(epsilon=1e-3))
        assert result.exposes_structure()
        assert result.loop_summary() == "n1,24"


class TestNoiseBeyondTolerance:
    @pytest.mark.parametrize("magnitude", [5e-2])
    def test_graceful_degradation(self, magnitude):
        flat = _noisy_array(magnitude)
        result = synthesize(flat, SynthesisConfig(epsilon=1e-3))
        # Whatever is produced must still be equivalent to the input; if no
        # closed form fits within epsilon the output simply stays flat.
        assert validate_synthesis(flat, result.output_term(), epsilon=1e-6).valid or \
            not result.exposes_structure()

    def test_widening_epsilon_recovers_structure(self):
        flat = _noisy_array(5e-3)
        strict = synthesize(flat, SynthesisConfig(epsilon=1e-3))
        loose = synthesize(flat, SynthesisConfig(epsilon=2e-2))
        assert loose.exposes_structure()
        # The strict run may or may not expose structure; the loose run must.
        assert loose.structured_rank() is not None
