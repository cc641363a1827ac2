"""Kernel dtype tiers: the float32-vs-float64 tolerance band per family.

Every engine family that declares the float32 tier must track its
float64 trajectory within a loose single-precision band.  The matrix
below runs scenario x family on short batched runs and asserts exactly
that (float64 itself is the bitwise oracle, pinned by the solo-vs-batch
and engine tests).
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.dlpic import DLEnsemble, DLFieldSolver
from repro.models.architectures import build_mlp
from repro.phasespace.binning import PhaseSpaceGrid
from repro.phasespace.normalization import MinMaxNormalizer
from repro.pic.simulation import EnsembleSimulation
from repro.vlasov.ensemble import VlasovEnsemble

BATCH = 4
STEPS = 6


def _dl_solver(config):
    grid = PhaseSpaceGrid(n_x=16, n_v=8, box_length=config.box_length)
    model = build_mlp(
        input_size=grid.size, output_size=config.n_cells, hidden_size=24, rng=0
    )
    normalizer = MinMaxNormalizer.from_dict({"minimum": 0.0, "maximum": 60.0})
    return DLFieldSolver(model, grid, normalizer, input_kind="flat")


def _traditional_config(scenario):
    return SimulationConfig(
        scenario=scenario, n_cells=32, particles_per_cell=30, n_steps=STEPS,
        vth=0.01, v0=0.2, seed=3,
    )


def _vlasov_config(scenario):
    return SimulationConfig(
        solver="vlasov", scenario=scenario, n_cells=32, n_steps=STEPS,
        vth=0.25, v0=1.0, seed=1, extra={"n_v": 48, "v_min": -6.0, "v_max": 6.0},
    )


def _build(family, scenario, dtype):
    """Build + run one matrix cell; return its observable state arrays."""
    if family == "traditional":
        config = _traditional_config(scenario).with_updates(dtype=dtype)
        ens = EnsembleSimulation.from_config(config, BATCH)
    elif family == "vlasov":
        config = _vlasov_config(scenario).with_updates(dtype=dtype)
        ens = VlasovEnsemble([config.with_updates(seed=config.seed + b) for b in range(BATCH)])
    else:  # dl
        config = _traditional_config(scenario).with_updates(dtype=dtype)
        ens = DLEnsemble.from_config(config, BATCH, _dl_solver(config))
    ens.run(STEPS)
    if family == "vlasov":
        return {"f": ens.f.copy(), "efield": ens.efield.copy()}
    return {
        "x": ens.particles.x.copy(),
        "v": ens.particles.v.copy(),
        "efield": ens.efield.copy(),
    }


FAMILIES = ("traditional", "vlasov", "dl")
SCENARIOS = ("two_stream", "landau_damping")


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("family", FAMILIES)
class TestParityMatrix:
    def test_float32_tracks_float64_within_tolerance(self, family, scenario):
        ref64 = _build(family, scenario, "float64")
        ref32 = _build(family, scenario, "float32")
        for key, lo in ref32.items():
            assert lo.dtype == np.float32
            hi = ref64[key]
            assert hi.dtype == np.float64
            assert np.all(np.isfinite(lo))
            scale = max(1.0, float(np.max(np.abs(hi))))
            diff = float(np.max(np.abs(lo.astype(np.float64) - hi)))
            # Short runs in single precision stay within a loose
            # single-precision band of the double trajectory.
            assert diff <= 1e-3 * scale, (
                f"{family}/{scenario}: float32 {key!r} drifted {diff:g} "
                f"from float64 (scale {scale:g})"
            )
