"""Semi-Lagrangian Vlasov-Poisson solver (Cheng & Knorr splitting).

Evolves the electron distribution ``f(x, v, t)`` on a fixed
``(n_v, n_x)`` phase-space grid under

.. math::
    \\partial_t f + v \\partial_x f + (q/m) E \\partial_v f = 0,

coupled to the same Poisson solve as the PIC code.  One time step is
the classic Strang split: half x-advection, E update + full
v-advection, half x-advection.  Advections are exact shifts along grid
lines evaluated with (vectorized) linear interpolation — periodic in
``x``, zero-inflow in ``v``.

Unlike PIC, the solution carries no particle shot noise, which is what
makes it attractive as a training-data source.

This solo solver always runs in float64; the float32 speed tier lives
on :class:`repro.vlasov.ensemble.VlasovEnsemble`, whose rows are
bitwise identical to this solver in the default float64 tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.engines.observables import Frame, Observables, vlasov_observables
from repro.pic.grid import Grid1D
from repro.pic.poisson import PoissonSolver


@dataclass(frozen=True)
class VlasovConfig:
    """Parameters of a Vlasov-Poisson two-stream run."""

    box_length: float = constants.TWO_STREAM_BOX_LENGTH
    n_x: int = 64
    n_v: int = 128
    v_min: float = -0.5
    v_max: float = 0.5
    dt: float = 0.1
    n_steps: int = 400
    v0: float = constants.PAPER_VALIDATION_V0
    vth: float = constants.PAPER_VALIDATION_VTH
    qm: float = constants.ELECTRON_QM
    perturbation: float = 1e-3
    perturbation_mode: int = 1
    poisson_solver: str = "spectral"
    gradient: str = "central"

    def __post_init__(self) -> None:
        if self.vth <= 0:
            raise ValueError(
                f"Vlasov two-stream loading needs vth > 0 (a cold delta beam is not "
                f"representable on a velocity grid), got {self.vth}"
            )
        if self.n_x < 2 or self.n_v < 2:
            raise ValueError(f"grid too small: ({self.n_x}, {self.n_v})")
        if self.v_max <= self.v_min:
            raise ValueError(f"empty velocity window [{self.v_min}, {self.v_max}]")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def dx(self) -> float:
        """Spatial grid spacing."""
        return self.box_length / self.n_x

    @property
    def dv(self) -> float:
        """Velocity grid spacing."""
        return (self.v_max - self.v_min) / self.n_v

    def x_centers(self) -> np.ndarray:
        """Spatial cell centers (f is cell-centered in x)."""
        return (np.arange(self.n_x) + 0.5) * self.dx

    def v_centers(self) -> np.ndarray:
        """Velocity cell centers."""
        return self.v_min + (np.arange(self.n_v) + 0.5) * self.dv


def two_stream_distribution(config: VlasovConfig) -> np.ndarray:
    """Initial two-stream distribution on the phase-space grid.

    Two Maxwellian beams at ``+/-v0`` with thermal spread ``vth`` and a
    seeded density perturbation ``1 + eps*cos(m k1 x)``; normalized so
    the mean electron density is 1 (total phase-space mass ``L``).
    """
    x = config.x_centers()
    v = config.v_centers()
    gauss = lambda u: np.exp(-0.5 * (u / config.vth) ** 2)  # noqa: E731
    fv = 0.5 * (gauss(v - config.v0) + gauss(v + config.v0))
    norm = np.sum(fv) * config.dv
    if norm <= 0:
        raise ValueError("velocity window does not contain the beams")
    fv = fv / norm
    k = 2.0 * np.pi * config.perturbation_mode / config.box_length
    fx = 1.0 + config.perturbation * np.cos(k * x)
    return fv[:, None] * fx[None, :]


def _shift_periodic_rows(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """Shift each row ``j`` of ``f`` by ``shift_cells[j]`` (periodic, linear).

    ``f`` is ``(n_v, n_x)`` or stacked ``(batch, n_v, n_x)``; the shift
    (the x-advection, a function of the velocity row only) is shared by
    every stacked member.  The interpolation weights and gather indices
    are computed once per call and applied to the whole stack, and the
    per-element arithmetic is identical either way — row ``b`` of a
    batched shift is bitwise equal to shifting member ``b`` alone.
    """
    n_v, n_x = f.shape[-2:]
    cols = np.arange(n_x)[None, :] - shift_cells[:, None]
    base = np.floor(cols).astype(np.int64)
    w = cols - base
    rows = np.arange(n_v)[:, None]
    if f.ndim == 2:
        return (1.0 - w) * f[rows, base % n_x] + w * f[rows, (base + 1) % n_x]
    # Index the member axis explicitly: an all-advanced-index gather
    # returns a fresh C-contiguous array, keeping every downstream
    # reduction's traversal order (and hence its bits) independent of
    # the batch size.
    member = np.arange(f.shape[0])[:, None, None]
    return (1.0 - w) * f[member, rows, base % n_x] + w * f[member, rows, (base + 1) % n_x]


def _shift_clamped_columns(f: np.ndarray, shift_cells: np.ndarray) -> np.ndarray:
    """Shift each column ``i`` by ``shift_cells[i]`` (zero inflow, linear).

    ``f`` is ``(n_v, n_x)`` with ``(n_x,)`` shifts, or stacked
    ``(batch, n_v, n_x)`` with per-member ``(batch, n_x)`` shifts (the
    v-advection depends on each member's own field).  Row ``b`` of a
    batched shift is bitwise equal to the member's solo shift.
    """
    n_v, n_x = f.shape[-2:]
    shift = np.asarray(shift_cells)
    rows = np.arange(n_v)[:, None] - shift[..., None, :]
    base = np.floor(rows).astype(np.int64)
    w = rows - base
    cols = np.arange(n_x)[None, :]
    valid0 = (base >= 0) & (base < n_v)
    valid1 = (base + 1 >= 0) & (base + 1 < n_v)
    if f.ndim == 2:
        gather0 = f[np.clip(base, 0, n_v - 1), cols]
        gather1 = f[np.clip(base + 1, 0, n_v - 1), cols]
    else:
        member = np.arange(f.shape[0])[:, None, None]
        gather0 = f[member, np.clip(base, 0, n_v - 1), cols]
        gather1 = f[member, np.clip(base + 1, 0, n_v - 1), cols]
    f0 = np.where(valid0, gather0, 0.0)
    f1 = np.where(valid1, gather1, 0.0)
    return (1.0 - w) * f0 + w * f1


class VlasovSimulation:
    """Time integrator for the Vlasov-Poisson two-stream problem.

    Diagnostics stream through the shared
    :class:`~repro.engines.observables.Observables` pipeline (the same
    scalar series — and the same ``as_arrays`` contract — as every PIC
    engine); ``history`` is that recorder and :meth:`run` returns it.
    """

    def __init__(self, config: VlasovConfig, f0: "np.ndarray | None" = None) -> None:
        self.config = config
        self.grid = Grid1D(config.n_x, config.box_length)
        self.poisson = PoissonSolver(
            self.grid, method=config.poisson_solver, gradient=config.gradient
        )
        self.f = two_stream_distribution(config) if f0 is None else np.array(f0, dtype=np.float64)
        if self.f.shape != (config.n_v, config.n_x):
            raise ValueError(
                f"f has shape {self.f.shape}, expected {(config.n_v, config.n_x)}"
            )
        self.time = 0.0
        self.step_index = 0
        self.efield = self._solve_field()
        self._v_centers = config.v_centers()
        self.history = self.observables()
        self._record()

    def observables(self) -> Observables:
        """A fresh default observables recorder for this single run."""
        return Observables(vlasov_observables(), squeeze=True)

    # -- field and moments ----------------------------------------------
    def density(self) -> np.ndarray:
        """Electron number density ``n(x) = integral(f dv)``."""
        return np.sum(self.f, axis=0) * self.config.dv

    def _solve_field(self) -> np.ndarray:
        rho = -self.density() + 1.0  # electrons (q = -1) + ion background
        _, e = self.poisson.solve(rho)
        return e

    def kinetic_energy(self) -> float:
        """``integral(v^2/2 f dx dv)`` (electron mass 1)."""
        v = self.config.v_centers()
        return float(
            0.5 * np.sum(self.f * (v**2)[:, None]) * self.config.dx * self.config.dv
        )

    def field_energy(self) -> float:
        """``(1/2) integral(E^2 dx)``."""
        return float(0.5 * np.sum(self.efield**2) * self.config.dx)

    def momentum(self) -> float:
        """``integral(v f dx dv)``."""
        v = self.config.v_centers()
        return float(np.sum(self.f * v[:, None]) * self.config.dx * self.config.dv)

    def mass(self) -> float:
        """Total phase-space mass (conserved up to v-window outflow)."""
        return float(np.sum(self.f) * self.config.dx * self.config.dv)

    def _record(self) -> None:
        self.history.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            f=self.f, v_centers=self._v_centers,
            dx=self.config.dx, dv=self.config.dv,
        ))

    # -- time stepping ----------------------------------------------------
    def step(self) -> None:
        """One Strang-split step: x half, v full, x half."""
        cfg = self.config
        v_shift = cfg.v_centers() * (0.5 * cfg.dt) / cfg.dx
        self.f = _shift_periodic_rows(self.f, v_shift)
        self.efield = self._solve_field()
        a_shift = cfg.qm * self.efield * cfg.dt / cfg.dv
        self.f = _shift_clamped_columns(self.f, a_shift)
        self.f = _shift_periodic_rows(self.f, v_shift)
        self.efield = self._solve_field()
        self.time += cfg.dt
        self.step_index += 1
        self._record()

    def run(self, n_steps: "int | None" = None) -> Observables:
        """Advance ``n_steps`` and return the accumulated observables.

        The return value satisfies the shared engine contract:
        ``as_arrays()`` (or plain ``history["mode1"]`` indexing) yields
        the same scalar series every PIC engine records.
        """
        n = self.config.n_steps if n_steps is None else n_steps
        if n < 0:
            raise ValueError(f"n_steps must be non-negative, got {n}")
        self.history.reserve(len(self.history) + n)
        for _ in range(n):
            self.step()
        return self.history
