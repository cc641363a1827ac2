"""The DL-based PIC method: the full cycle of the paper's Fig. 2.

Identical to the traditional cycle except that the field-solver stage
(charge deposition + Poisson solve) is replaced by phase-space binning
and a neural-network prediction.  The interpolation of the field to
particle positions and the Newton/leapfrog mover are retained verbatim.

:class:`DLEnsemble` extends the batched ensemble engine to the DL
path: every member's histogram is built by one fused binning call and
all fields come from ONE network forward per step, with each row
bitwise identical to the corresponding single :class:`DLPIC` run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.dlpic.solver import DLFieldSolver
from repro.pic.simulation import EnsembleSimulation, PICSimulation


def _check_box_length(solver: DLFieldSolver, config: SimulationConfig) -> None:
    """The solver's frozen phase-space grid must match the simulation box."""
    if abs(solver.ps_grid.box_length - config.box_length) > 1e-12 * config.box_length:
        raise ValueError(
            f"solver was trained for box length {solver.ps_grid.box_length}, "
            f"simulation uses {config.box_length}"
        )


class DLEnsemble(EnsembleSimulation):
    """Batched DL-PIC: a whole sweep through one network per step.

    The traditional ensemble engine drives the neural field solver
    natively (``DLFieldSolver.supports_batch``): at each cycle the
    stacked ``(batch, n)`` phase spaces are binned by one fused
    ``bincount``, normalized in one pass and pushed through ONE network
    forward, so the most expensive stage of the DL cycle is amortized
    across the ensemble exactly like the Poisson solve is for
    traditional sweeps.  Row ``b`` reproduces
    ``DLPIC(configs[b], solver)`` bit for bit.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        field_solver: DLFieldSolver,
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        if not isinstance(field_solver, DLFieldSolver):
            raise TypeError(
                f"DLEnsemble needs a DLFieldSolver, got {type(field_solver).__name__}"
            )
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        configs = tuple(configs)
        if configs:
            _check_box_length(field_solver, configs[0])
        super().__init__(configs, field_solver=field_solver, rngs=rngs)

    @classmethod
    def from_config(  # type: ignore[override]
        cls,
        config: SimulationConfig,
        batch: int,
        field_solver: DLFieldSolver,
        seeds: "Sequence[int] | None" = None,
    ) -> "DLEnsemble":
        """Replicate ``config`` over ``batch`` seeded members (seed+b)."""
        return super().from_config(config, batch, seeds=seeds, field_solver=field_solver)

    @property
    def dl_solver(self) -> DLFieldSolver:
        """The neural field solver driving this ensemble."""
        solver = self.field_solver
        assert isinstance(solver, DLFieldSolver)
        return solver

    @property
    def last_histograms(self) -> "np.ndarray | None":
        """Stacked ``(batch, n_v, n_x)`` histograms of the latest step."""
        return self.dl_solver.last_histograms


class DLPIC(PICSimulation):
    """PIC simulation whose field solve is a trained neural network."""

    def __init__(
        self,
        config: SimulationConfig,
        solver: DLFieldSolver,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        _check_box_length(solver, config)
        super().__init__(config, solver, rng)

    @property
    def dl_solver(self) -> DLFieldSolver:
        """The neural field solver driving this run."""
        solver = self.field_solver
        assert isinstance(solver, DLFieldSolver)
        return solver

    @property
    def last_histogram(self) -> "np.ndarray | None":
        """Phase-space histogram from the most recent field prediction."""
        return self.dl_solver.last_histogram
