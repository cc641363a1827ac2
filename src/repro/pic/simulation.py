"""Electrostatic PIC orchestrators.

:class:`EnsembleSimulation` is the engine: it advances a whole batch of
independent runs at once, every kernel of the cycle (gather, leapfrog
push, charge deposit, Poisson solve) operating on stacked ``(batch, n)``
arrays.  Because each batched kernel is bitwise identical per row to
its single-run form, an ensemble of size ``B`` reproduces ``B``
sequential runs exactly while amortizing the per-step Python and FFT
overhead across the batch.

:class:`PICSimulation` — the computational cycle shared by the
traditional and the DL-based method (the white boxes of the paper's
Figs. 1-2) — is a thin ``batch=1`` view over the ensemble engine that
keeps the original single-run API (1-D particle arrays, squeezed
``Observables`` diagnostics, per-run pluggable ``FieldSolver``).

:class:`TraditionalPIC` wires in the classic charge-deposit + Poisson
field solve (Fig. 1); ``repro.dlpic.DLPIC`` wires in the neural solver
(Fig. 2).  Both field solves are batch-native: the traditional path
batches its scatter + FFTs, and ``repro.dlpic.DLFieldSolver`` bins,
normalizes and network-evaluates a whole ensemble per step
(``repro.dlpic.DLEnsemble`` is the preconfigured DL sweep engine).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import STRUCTURAL_FIELDS, run_ensemble
from repro.engines.observables import Frame, Observables, pic_observables
from repro.pic.grid import Grid1D
from repro.pic.interpolation import charge_density, gather
from repro.pic.mover import push_positions, push_velocities, rewind_velocities
from repro.pic.particles import ParticleSet
from repro.pic.poisson import PoissonSolver
from repro.pic.scenarios import load_ensemble

__all__ = [
    "STRUCTURAL_FIELDS",  # canonical home: repro.engines.base
    "FieldSolver",
    "LiftedFieldSolver",
    "as_batched_solver",
    "ChargeDepositionFieldSolver",
    "EnsembleSimulation",
    "PICSimulation",
    "TraditionalPIC",
]


class FieldSolver(Protocol):
    """Anything that can produce ``E`` on the grid from particle data.

    Single-run solvers receive 1-D ``(n,)`` phase-space arrays and
    return ``(n_cells,)``.  A solver that can handle stacked
    ``(batch, n)`` inputs natively (returning ``(batch, n_cells)``)
    should set ``supports_batch = True``; others are lifted row by row
    via :class:`LiftedFieldSolver` when used in an ensemble.
    """

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Electric field on grid nodes given the particle phase space."""
        ...


class LiftedFieldSolver:
    """Adapts a single-run :class:`FieldSolver` to batched inputs.

    Calls the wrapped solver once per ensemble row and stacks the
    results — no speedup, but it lets per-run solvers (e.g. the
    simulated-MPI solvers) drive an ensemble unchanged, and it keeps
    ``batch=1`` ensembles bitwise faithful to the plain single-run
    cycle.  The DL field solver no longer needs it: it is batch-native
    and predicts every member's field with one network forward.
    """

    supports_batch = True

    def __init__(self, solver: FieldSolver) -> None:
        self.solver = solver

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.stack(
            [np.asarray(self.solver.field(x[b], v[b]), dtype=np.float64)
             for b in range(x.shape[0])]
        )


def as_batched_solver(solver: FieldSolver) -> FieldSolver:
    """Return ``solver`` if batch-capable, else lift it row by row."""
    if getattr(solver, "supports_batch", False):
        return solver
    return LiftedFieldSolver(solver)


class ChargeDepositionFieldSolver:
    """The traditional field-solve: deposit charge, solve Poisson.

    This is the right-hand loop of the paper's Fig. 1 (interpolation of
    the charge density at grid points + Poisson solve + gradient).
    Batch-capable: with ``(batch, n)`` positions the deposit scatters
    through offset flat indices and the Poisson solve batches its FFTs
    along the last axis.
    """

    supports_batch = True

    def __init__(
        self,
        grid: Grid1D,
        particle_charge: float,
        interpolation: str = "cic",
        poisson_method: str = "spectral",
        gradient: str = "central",
        background: float = 1.0,
    ) -> None:
        self.grid = grid
        self.particle_charge = particle_charge
        self.interpolation = interpolation
        self.background = background
        self.poisson = PoissonSolver(grid, method=poisson_method, gradient=gradient)
        self.last_rho: "np.ndarray | None" = None
        self.last_phi: "np.ndarray | None" = None

    def field(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        rho = charge_density(
            self.grid, x, self.particle_charge, order=self.interpolation,
            background=self.background,
        )
        phi, e = self.poisson.solve(rho)
        self.last_rho = rho
        self.last_phi = phi
        return e


class EnsembleSimulation:
    """Batched explicit electrostatic PIC cycle over stacked runs.

    Parameters
    ----------
    configs:
        One configuration per ensemble member (or a single config for a
        batch of one).  Members may differ in scenario, seed, beam
        parameters, loading and perturbation, but must agree on the
        structural fields (grid, time step, particle count,
        interpolation and solver choices) listed in
        ``STRUCTURAL_FIELDS``.
    field_solver:
        Optional field solver; defaults to the traditional batched
        charge-deposit + Poisson solve.  Single-run solvers are lifted
        automatically.
    rngs:
        Optional per-member RNG overrides (seeds or generators); by
        default each member loads from its own ``config.seed``.

    Leapfrog time staggering matches :class:`PICSimulation`: positions
    at integer times, velocities at half times, diagnostics at integer
    times via the time-centered velocity average.

    One gather per step: the end-of-step gather of ``E_{n+1}`` at
    ``x_{n+1}`` (for the synchronized diagnostic velocities) is exactly
    the gather the next step starts with, and the rewind gather in the
    constructor is the first step's.  The engine keeps that gather in a
    one-entry cache keyed on the identity of ``particles.x`` and
    ``efield``.  Both arrays are therefore **read-only** between steps:
    an in-place edit raises ``ValueError`` instead of silently reusing a
    stale gather.  To change the state, assign new arrays
    (``ens.particles.x = ...``, ``ens.efield = ...``); a new array
    misses the cache and is gathered afresh.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        field_solver: "FieldSolver | None" = None,
        rngs: "Sequence[int | np.random.Generator | None] | None" = None,
    ) -> None:
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        self.configs: tuple[SimulationConfig, ...] = tuple(configs)
        if not self.configs:
            raise ValueError("ensemble needs at least one configuration")
        ref = self.configs[0]
        for i, cfg in enumerate(self.configs[1:], 1):
            for name in STRUCTURAL_FIELDS:
                if getattr(cfg, name) != getattr(ref, name):
                    raise ValueError(
                        f"ensemble member {i} differs from member 0 in structural "
                        f"field {name!r}: {getattr(cfg, name)!r} != {getattr(ref, name)!r}"
                    )
        self.config = ref  # structural reference member
        self.batch = len(self.configs)
        self.grid = Grid1D(ref.n_cells, ref.box_length)
        if field_solver is None:
            field_solver = ChargeDepositionFieldSolver(
                self.grid,
                particle_charge=ref.particle_charge,
                interpolation=ref.interpolation,
                poisson_method=ref.poisson_solver,
                gradient=ref.gradient,
            )
        self.field_solver = as_batched_solver(field_solver)
        self.particles: ParticleSet = load_ensemble(self.configs, rngs)
        # The numerical tier: float64 runs are bitwise reproducible;
        # float32 runs load identically (same RNG draws, in double) and
        # then cast the initial state down, after which the whole cycle
        # — gather, push, deposit, FFTs — runs in single precision.
        self._dtype = ref.np_dtype
        if self._dtype == np.float32:
            self.particles.x = self.particles.x.astype(np.float32)
            self.particles.v = self.particles.v.astype(np.float32)
        self.time: float = 0.0
        self.step_index: int = 0
        # Field at t=0 consistent with the initial particle state.
        self.efield: np.ndarray = np.asarray(
            self.field_solver.field(self.particles.x, self.particles.v), dtype=self._dtype
        )
        if self.efield.shape != (self.batch, ref.n_cells):
            raise ValueError(
                f"field solver returned shape {self.efield.shape}, "
                f"expected ({self.batch}, {ref.n_cells})"
            )
        self._v_integer = self.particles.v.copy()  # v at t=0 (integer time)
        # (x, efield, E at x): the latest gather, reused while both
        # arrays are the same objects (see the class docstring).
        self._gathered: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        # Rewind v to t = -dt/2 for leapfrog staggering.
        self.particles.v = rewind_velocities(self.particles.v, self._gather(), ref.qm, ref.dt)
        self._freeze_state()

    @classmethod
    def from_config(
        cls,
        config: SimulationConfig,
        batch: int,
        seeds: "Sequence[int] | None" = None,
        field_solver: "FieldSolver | None" = None,
    ) -> "EnsembleSimulation":
        """Replicate ``config`` over ``batch`` members with distinct seeds.

        By default member ``b`` uses ``config.seed + b``, so a batch of
        one is seeded exactly like the single-run simulation and two
        ensembles built from the same config are identical.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if seeds is None:
            seeds = [config.seed + b for b in range(batch)]
        if len(seeds) != batch:
            raise ValueError(f"got {len(seeds)} seeds for batch {batch}")
        return cls(
            [config.with_updates(seed=int(s)) for s in seeds], field_solver=field_solver
        )

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities synchronized to the current integer time, ``(batch, n)``."""
        return self._v_integer

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this engine."""
        return Observables(pic_observables(record_fields=record_fields))

    def _record(self, hist: Observables) -> None:
        """Stream the current state into ``hist`` as one batched frame."""
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles, v_center=self._v_integer,
        ))

    def _gather(self) -> np.ndarray:
        """``efield`` at ``particles.x``, computed once per state.

        The cache hit is an identity check: the gather is reused only
        while both arrays are the very objects it was computed from.
        """
        x, efield = self.particles.x, self.efield
        cached = self._gathered
        if cached is not None and cached[0] is x and cached[1] is efield:
            return cached[2]
        e_at_p = gather(self.grid, efield, x, order=self.config.interpolation)
        self._gathered = (x, efield, e_at_p)
        return e_at_p

    def _freeze_state(self) -> None:
        """Make the gather's inputs read-only so in-place edits raise."""
        self.particles.x.flags.writeable = False
        self.efield.flags.writeable = False

    def step(self) -> None:
        """Advance every member one PIC cycle (gather -> push v -> push x -> field)."""
        cfg = self.config
        v_new = push_velocities(self.particles.v, self._gather(), cfg.qm, cfg.dt)
        self.particles.v = v_new
        self.particles.x = push_positions(self.particles.x, v_new, cfg.dt, cfg.box_length)
        self.efield = np.asarray(
            self.field_solver.field(self.particles.x, self.particles.v), dtype=self._dtype
        )
        self.step_index += 1
        self.time += cfg.dt
        # Synchronize velocities to the new integer time t_{n+1} with a
        # half push using the freshly computed field (diagnostics only).
        # This gather is cached: the next step starts with it.
        self._v_integer = v_new + 0.5 * cfg.qm * self._gather() * cfg.dt
        self._freeze_state()

    run = run_ensemble


class PICSimulation:
    """Single-run view of the ensemble engine (``batch=1``).

    Keeps the seed API: 1-D ``particles`` arrays, a per-run
    :class:`FieldSolver` (lifted internally), squeezed ``Observables``
    diagnostics and the leapfrog staggering described on
    :class:`EnsembleSimulation`.  The trajectory is bitwise identical
    to the pre-ensemble single-run implementation.

    ``particles.x`` and ``efield`` are read-only row views of the
    engine's state, as on :class:`EnsembleSimulation`; assigning new
    arrays between steps is the way to change them.
    """

    def __init__(
        self,
        config: SimulationConfig,
        field_solver: FieldSolver,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.config = config
        self.field_solver = field_solver
        self._ensemble = EnsembleSimulation((config,), field_solver=field_solver, rngs=[rng])
        self.grid = self._ensemble.grid
        ens_particles = self._ensemble.particles
        self.particles = ParticleSet(
            ens_particles.x[0], ens_particles.v[0], ens_particles.charge, ens_particles.mass
        )
        self._sync_from_ensemble()

    def _sync_from_ensemble(self) -> None:
        """Expose row 0 of the ensemble state through the 1-D attributes."""
        ens = self._ensemble
        self.particles.x = ens.particles.x[0]
        self.particles.v = ens.particles.v[0]
        self.efield = ens.efield[0]
        self._synced = (self.particles.x, self.efield)
        self._v_integer = ens._v_integer[0]
        self.time = ens.time
        self.step_index = ens.step_index

    def _push_to_ensemble(self) -> None:
        """Adopt reassigned 1-D state back into the ensemble.

        Reshaping the (contiguous) 1-D arrays to ``(1, n)`` is a view,
        so this costs nothing when the state was not touched.  Positions
        and field are pushed only when reassigned, so an untouched state
        keeps the engine's cached gather.
        """
        ens = self._ensemble
        dtype = ens._dtype
        synced_x, synced_efield = self._synced
        if self.particles.x is not synced_x:
            ens.particles.x = np.asarray(self.particles.x, dtype=dtype).reshape(1, -1)
        ens.particles.v = np.asarray(self.particles.v, dtype=dtype).reshape(1, -1)
        if self.efield is not synced_efield:
            ens.efield = np.asarray(self.efield, dtype=dtype).reshape(1, -1)
        ens._v_integer = np.asarray(self._v_integer, dtype=dtype).reshape(1, -1)

    @property
    def v_at_integer_time(self) -> np.ndarray:
        """Velocities synchronized to the current integer time."""
        return self._v_integer

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this single run."""
        return Observables(pic_observables(record_fields=record_fields), squeeze=True)

    def _record(self, hist: Observables) -> None:
        """Stream the current 1-D state into ``hist`` as one frame."""
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            particles=self.particles, v_center=self._v_integer,
        ))

    def step(self) -> None:
        """Advance one PIC cycle (gather -> push v -> push x -> field)."""
        self._push_to_ensemble()
        self._ensemble.step()
        self._sync_from_ensemble()

    def run(
        self,
        n_steps: "int | None" = None,
        history: "Observables | None" = None,
    ) -> Observables:
        """Run ``n_steps`` cycles, recording diagnostics at every step.

        The history includes the initial state, so it holds
        ``n_steps + 1`` entries.
        """
        n = self.config.n_steps if n_steps is None else n_steps
        if n < 0:
            raise ValueError(f"n_steps must be non-negative, got {n}")
        hist = history if history is not None else self.observables()
        hist.reserve(len(hist) + n + 1)  # stream into one preallocated buffer
        self._record(hist)
        for _ in range(n):
            self.step()
            self._record(hist)
        return hist


def _first_row(arr: "np.ndarray | None") -> "np.ndarray | None":
    """Row 0 of a batched grid array (pass 1-D arrays through)."""
    if arr is None:
        return None
    return arr[0] if arr.ndim == 2 else arr


class TraditionalPIC(PICSimulation):
    """The paper's traditional explicit electrostatic PIC (Fig. 1)."""

    def __init__(
        self,
        config: SimulationConfig,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        grid = Grid1D(config.n_cells, config.box_length)
        solver = ChargeDepositionFieldSolver(
            grid,
            particle_charge=config.particle_charge,
            interpolation=config.interpolation,
            poisson_method=config.poisson_solver,
            gradient=config.gradient,
        )
        super().__init__(config, solver, rng)

    @property
    def charge_density(self) -> "np.ndarray | None":
        """Total charge density from the most recent field solve."""
        solver = self.field_solver
        assert isinstance(solver, ChargeDepositionFieldSolver)
        return _first_row(solver.last_rho)

    @property
    def potential(self) -> "np.ndarray | None":
        """Electrostatic potential from the most recent field solve."""
        solver = self.field_solver
        assert isinstance(solver, ChargeDepositionFieldSolver)
        return _first_row(solver.last_phi)
