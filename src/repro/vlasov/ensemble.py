"""Batch-native semi-Lagrangian Vlasov-Poisson ensemble.

:class:`VlasovEnsemble` advances a whole batch of independent
Vlasov-Poisson runs at once on a stacked ``(batch, n_v, n_x)``
phase-space state: the x-advection's interpolation weights are computed
once and gathered across the stack, each member's v-advection shifts by
its own field, and the two field solves of the Strang split batch
their FFTs through one :class:`~repro.pic.poisson.PoissonSolver` call.
Every per-element operation matches the solo
:class:`~repro.vlasov.solver.VlasovSimulation` exactly, so row ``b`` of
an ensemble is bitwise identical to running member ``b`` alone — which
is what lets the micro-batching service coalesce Vlasov requests with
the same result guarantees as the PIC families.

Members are plain :class:`~repro.config.SimulationConfig` runs with
``solver="vlasov"``: the grid maps ``n_cells -> n_x`` and the velocity
window comes from ``extra`` (``n_v``/``v_min``/``v_max``, see
:func:`repro.engines.base.vlasov_grid_params`); the initial state is
the scenario's registered noise-free distribution
(:func:`repro.pic.scenarios.load_distribution`).  Members may differ in
scenario, beam parameters and perturbations, but must agree on the
structural key (grid, window, ``dt``, ``qm``, Poisson discretization).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import get_engine_spec, run_ensemble, vlasov_grid_params
from repro.engines.observables import Frame, Observables, vlasov_observables
from repro.pic.grid import Grid1D
from repro.pic.poisson import PoissonSolver
from repro.pic.scenarios import load_distribution
from repro.vlasov.solver import VlasovConfig


def vlasov_config_from(config: SimulationConfig) -> VlasovConfig:
    """The :class:`VlasovConfig` equivalent of a ``solver="vlasov"`` run.

    ``n_cells`` becomes the spatial grid ``n_x``; the velocity window
    comes from ``config.extra``.  Particle-only knobs (``ppc``,
    ``interpolation``, ``loading``, ``seed``) have no Vlasov meaning
    and are dropped.
    """
    n_v, v_min, v_max = vlasov_grid_params(config)
    return VlasovConfig(
        box_length=config.box_length,
        n_x=config.n_cells,
        n_v=n_v,
        v_min=v_min,
        v_max=v_max,
        dt=config.dt,
        n_steps=config.n_steps,
        v0=config.v0,
        vth=config.vth,
        qm=config.qm,
        perturbation=config.perturbation,
        perturbation_mode=config.perturbation_mode,
        poisson_solver=config.poisson_solver,
        gradient=config.gradient,
    )


class VlasovEnsemble:
    """Batched Strang-split Vlasov-Poisson integrator over stacked runs.

    Parameters
    ----------
    configs:
        One :class:`SimulationConfig` per member (or a single config
        for a batch of one); all members must share the Vlasov
        structural key.
    f0s:
        Optional ``(batch, n_v, n_x)`` initial distributions (or a
        sequence of ``(n_v, n_x)`` arrays); by default each member
        loads its scenario's registered noise-free distribution.

    The time stepping is the solo solver's classic split — half
    x-advection, field update + full v-advection, half x-advection —
    executed on the whole stack at once.
    """

    def __init__(
        self,
        configs: "SimulationConfig | Sequence[SimulationConfig]",
        f0s: "np.ndarray | Sequence[np.ndarray] | None" = None,
    ) -> None:
        if isinstance(configs, SimulationConfig):
            configs = (configs,)
        self.configs: "tuple[SimulationConfig, ...]" = tuple(configs)
        if not self.configs:
            raise ValueError("ensemble needs at least one configuration")
        structural_key = get_engine_spec("vlasov").structural_key
        ref = self.configs[0]
        ref_key = structural_key(ref)
        for i, cfg in enumerate(self.configs[1:], 1):
            if structural_key(cfg) != ref_key:
                raise ValueError(
                    f"ensemble member {i} differs from member 0 in the Vlasov "
                    f"structural key: {structural_key(cfg)!r} != {ref_key!r}"
                )
        self.config = ref  # structural reference member
        self.batch = len(self.configs)
        self.vconfig = vlasov_config_from(ref)
        vcfg = self.vconfig
        if f0s is None:
            rows = [load_distribution(cfg) for cfg in self.configs]
        else:
            stacked = np.asarray(f0s, dtype=np.float64)
            if stacked.ndim == 2:  # one (n_v, n_x) distribution for a batch of one
                stacked = stacked[None]
            rows = [np.array(row) for row in stacked]
            if len(rows) != self.batch:
                raise ValueError(f"got {len(rows)} initial distributions for batch {self.batch}")
        for i, row in enumerate(rows):
            if row.shape != (vcfg.n_v, vcfg.n_x):
                raise ValueError(
                    f"member {i} f0 has shape {row.shape}, expected {(vcfg.n_v, vcfg.n_x)}"
                )
        self.f: np.ndarray = np.stack(rows)
        self.grid = Grid1D(vcfg.n_x, vcfg.box_length)
        self.poisson = PoissonSolver(
            self.grid, method=vcfg.poisson_solver, gradient=vcfg.gradient
        )
        self._v_centers = vcfg.v_centers()
        # The x-advection shift is a function of the velocity row only:
        # one weight/index computation serves the whole stack and every
        # step, so the interpolation weights and the (flattened) gather
        # indices are frozen here once.  The gathered elements and the
        # arithmetic are exactly the solo shift's, so rows stay bitwise
        # identical to solo runs.
        self._v_shift = self._v_centers * (0.5 * vcfg.dt) / vcfg.dx
        cols = np.arange(vcfg.n_x)[None, :] - self._v_shift[:, None]
        base = np.floor(cols).astype(np.int64)
        self._xadv_w = cols - base
        rows = np.arange(vcfg.n_v)[:, None]
        member = (np.arange(self.batch, dtype=np.int64) * (vcfg.n_v * vcfg.n_x))[:, None, None]
        self._xadv_flat0 = (member + (rows * vcfg.n_x + base % vcfg.n_x)[None]).reshape(
            self.batch, vcfg.n_v, vcfg.n_x
        )
        self._xadv_flat1 = (member + (rows * vcfg.n_x + (base + 1) % vcfg.n_x)[None]).reshape(
            self.batch, vcfg.n_v, vcfg.n_x
        )
        self._v_rows = np.arange(vcfg.n_v, dtype=np.float64)[None, :, None]
        # Flat-gather offset of the v-advection: member base + column.
        self._v_flat_offset = (
            (np.arange(self.batch, dtype=np.int64) * (vcfg.n_v * vcfg.n_x))[:, None, None]
            + np.arange(vcfg.n_x, dtype=np.int64)[None, None, :]
        )
        # The numerical tier: indices and weights are always derived in
        # double (exact), then the state and every stencil operand the
        # advections touch are cast down for float32 runs — after which
        # the whole split cycle (gathers, stencil arithmetic, FFTs) runs
        # in single precision.  float64 runs are untouched.
        self._dtype = ref.np_dtype
        if self._dtype == np.float32:
            self.f = self.f.astype(np.float32)
            self._v_centers = self._v_centers.astype(np.float32)
            self._xadv_w = self._xadv_w.astype(np.float32)
            self._v_rows = self._v_rows.astype(np.float32)
        self.time: float = 0.0
        self.step_index: int = 0
        self.efield: np.ndarray = self._solve_field()

    # -- field and moments ----------------------------------------------
    def density(self) -> np.ndarray:
        """Per-member electron density ``n(x) = integral(f dv)``, ``(batch, n_x)``."""
        return np.sum(self.f, axis=1) * self.vconfig.dv

    def _solve_field(self) -> np.ndarray:
        """One batched Poisson solve for every member's field."""
        rho = -self.density() + 1.0  # electrons (q = -1) + ion background
        _, e = self.poisson.solve(rho)
        return e

    def mass(self) -> np.ndarray:
        """Per-member phase-space mass, ``(batch,)``."""
        return np.sum(self.f, axis=(1, 2)) * self.vconfig.dx * self.vconfig.dv

    def observables(self, record_fields: bool = False) -> Observables:
        """A fresh default observables recorder for this engine."""
        return Observables(vlasov_observables(record_fields=record_fields))

    # -- time stepping ---------------------------------------------------
    def _advect_x(self, f: np.ndarray) -> np.ndarray:
        """Batched half x-advection using the frozen gather indices.

        Gathers the same elements and applies the same per-element
        arithmetic as :func:`~repro.vlasov.solver._shift_periodic_rows`
        on each member — bitwise identical per row — but the gathers run
        as one flat take per stack and the index math is paid once at
        construction instead of every call.
        """
        flat = f.reshape(-1)
        w = self._xadv_w
        g0 = flat.take(self._xadv_flat0)
        g1 = flat.take(self._xadv_flat1)
        return (1.0 - w) * g0 + w * g1

    def _advect_v(self, f: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Batched full v-advection (zero inflow), one flat gather per arm.

        Bitwise identical per row to
        :func:`~repro.vlasov.solver._shift_clamped_columns` with each
        member's own ``(n_x,)`` shift.  The zero-inflow clamp can only
        engage within ``max|shift|`` rows of the window edges, so the
        rows are split into an interior slab — gathered with no masks,
        no clips — and two thin boundary slabs that run the fully
        clamped arithmetic.  Within the interior both gather arms are
        valid, where the clamped path reduces to exactly the same
        ``(1-w)*f0 + w*f1`` on exactly the same gathered elements.
        """
        vcfg = self.vconfig
        n_v, n_x = vcfg.n_v, vcfg.n_x
        flat = f.reshape(-1)
        # Interior rows r satisfy floor(r - s) in [0, n_v-2] for every
        # member's shift s at every column: r >= max(s) and r < n_v-1+min(s).
        r0 = min(max(0, int(np.ceil(shift.max()))), n_v)
        r1 = max(r0, min(n_v, int(np.ceil(n_v - 1 + shift.min()))))
        out = np.empty_like(f)
        v_rows = self._v_rows

        def _weights(pos: np.ndarray, base: np.ndarray) -> np.ndarray:
            # float32 - int64 would promote to float64; keep the tier's
            # dtype (the float64 path is the historical expression).
            return pos - (base if pos.dtype == np.float64 else base.astype(pos.dtype))

        sh = shift[:, None, :]
        offs = self._v_flat_offset
        if r1 > r0:
            pos = v_rows[:, r0:r1] - sh
            base = np.floor(pos).astype(np.int64)
            w = _weights(pos, base)
            gidx = base * n_x + offs
            f0 = flat.take(gidx)
            f1 = flat.take(gidx + n_x)
            out[:, r0:r1] = (1.0 - w) * f0 + w * f1
        for lo, hi in ((0, r0), (r1, n_v)):
            if lo >= hi:
                continue
            pos = v_rows[:, lo:hi] - sh
            base = np.floor(pos).astype(np.int64)
            w = _weights(pos, base)
            valid0 = (base >= 0) & (base < n_v)
            valid1 = (base + 1 >= 0) & (base + 1 < n_v)
            g0 = flat.take(np.clip(base, 0, n_v - 1) * n_x + offs)
            g1 = flat.take(np.clip(base + 1, 0, n_v - 1) * n_x + offs)
            f0 = np.where(valid0, g0, 0.0)
            f1 = np.where(valid1, g1, 0.0)
            out[:, lo:hi] = (1.0 - w) * f0 + w * f1
        return out

    def step(self) -> None:
        """One batched Strang-split step: x half, v full, x half."""
        vcfg = self.vconfig
        self.f = self._advect_x(self.f)
        self.efield = self._solve_field()
        a_shift = vcfg.qm * self.efield * vcfg.dt / vcfg.dv  # (batch, n_x)
        self.f = self._advect_v(self.f, a_shift)
        self.f = self._advect_x(self.f)
        self.efield = self._solve_field()
        self.time += vcfg.dt
        self.step_index += 1

    run = run_ensemble

    def _record(self, hist: Observables) -> None:
        vcfg = self.vconfig
        hist.record_frame(Frame(
            self.step_index, self.time, self.grid, self.efield,
            f=self.f, v_centers=self._v_centers, dx=vcfg.dx, dv=vcfg.dv,
        ))
