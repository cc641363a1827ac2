"""Binning of the electron phase space onto a 2D grid.

Section III of the paper: "We form a phase space grid by discretizing
phase space with a two-dimensional grid and counting how many particles
belong to a cell of the phase space grid."  The paper uses NGP binning
and notes (Sec. VII) that higher-order interpolation for the binning is
an expected improvement — so CIC binning is implemented as well.

Conventions
-----------
The histogram has shape ``(n_v, n_x)``: rows index velocity (the
vertical axis of the paper's phase-space images), columns index
position.  Position is periodic on ``[0, L)``; velocity is clipped to
``[v_min, v_max]`` so the total histogram mass always equals the number
of particles (an invariant the tests rely on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Discretization of the ``(x, v)`` phase-space rectangle.

    Attributes
    ----------
    n_x, n_v:
        Number of bins along position and velocity.
    box_length:
        Periodic spatial extent ``L``.
    v_min, v_max:
        Velocity window; particles outside are clipped to the edge
        bins.  The paper's plots use ``[-0.4, 0.4]``-ish windows; the
        default ``[-0.5, 0.5]`` covers every training configuration
        (``v0 <= 0.3`` plus thermal tails) and the Fig. 6 beams.
    """

    n_x: int = 64
    n_v: int = 64
    box_length: float = constants.TWO_STREAM_BOX_LENGTH
    v_min: float = -0.5
    v_max: float = 0.5

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_v < 1:
            raise ValueError(f"bin counts must be positive, got ({self.n_x}, {self.n_v})")
        if self.v_max <= self.v_min:
            raise ValueError(f"empty velocity window [{self.v_min}, {self.v_max}]")
        if self.box_length <= 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        """Spatial bin width."""
        return self.box_length / self.n_x

    @property
    def dv(self) -> float:
        """Velocity bin width."""
        return (self.v_max - self.v_min) / self.n_v

    @property
    def shape(self) -> tuple[int, int]:
        """Histogram shape ``(n_v, n_x)``."""
        return (self.n_v, self.n_x)

    @property
    def size(self) -> int:
        """Flattened input size for the MLP."""
        return self.n_v * self.n_x

    def x_edges(self) -> np.ndarray:
        """Spatial bin edges, length ``n_x + 1``."""
        return np.linspace(0.0, self.box_length, self.n_x + 1)

    def v_edges(self) -> np.ndarray:
        """Velocity bin edges, length ``n_v + 1``."""
        return np.linspace(self.v_min, self.v_max, self.n_v + 1)


def _x_bins(x: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """NGP spatial bin index (cell containment), periodic.

    Positions from the PIC cycle are already wrapped to ``[0, L)``, and
    there ``np.mod`` is an identity (``-0.0`` bins like ``+0.0``) and
    truncation equals ``floor``, so in-range input skips both passes.
    A power-of-two ``n_x`` wraps the index by bit mask, which equals
    ``% n_x`` for every integer.  The result is identical to
    ``floor(mod(x, L) / dx) % n_x`` for every input.
    """
    n_x = grid.n_x
    if x.size and 0.0 <= x.min() and x.max() < grid.box_length:
        j = (x / grid.dx).astype(np.int64)
    else:
        j = np.floor(np.mod(x, grid.box_length) / grid.dx).astype(np.int64)
    if n_x & (n_x - 1) == 0:
        return j & (n_x - 1)
    return j % n_x


def _v_bins(v: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """NGP velocity bin index, clipped to the window."""
    idx = np.floor((v - grid.v_min) / grid.dv).astype(np.int64)
    return np.clip(idx, 0, grid.n_v - 1)


def _cic_flat_scatter(
    x: np.ndarray, v: np.ndarray, grid: PhaseSpaceGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened CIC scatter indices and bilinear weights.

    ``x`` and ``v`` may be ``(n,)`` or ``(batch, n)``; the returned
    indices address the row-major-raveled histogram(s) and the four
    corner contributions are concatenated along the last axis in the
    fixed order (v0x0, v0x1, v1x0, v1x1), so a single ``np.add.at`` on
    the raveled output accumulates every corner for every particle in
    the same order the classic four-scatter formulation does.
    """
    sx = np.mod(x, grid.box_length) / grid.dx - 0.5
    jx = np.floor(sx).astype(np.int64)
    fx = sx - jx
    jx0 = jx % grid.n_x
    jx1 = (jx + 1) % grid.n_x
    sv = (v - grid.v_min) / grid.dv - 0.5
    jv = np.floor(sv).astype(np.int64)
    fv = sv - jv
    # Clamp in velocity: out-of-window weight collapses onto edge bins.
    jv0 = np.clip(jv, 0, grid.n_v - 1)
    jv1 = np.clip(jv + 1, 0, grid.n_v - 1)
    flat = np.concatenate(
        [jv0 * grid.n_x + jx0, jv0 * grid.n_x + jx1,
         jv1 * grid.n_x + jx0, jv1 * grid.n_x + jx1],
        axis=-1,
    )
    weights = np.concatenate(
        [(1.0 - fv) * (1.0 - fx), (1.0 - fv) * fx, fv * (1.0 - fx), fv * fx],
        axis=-1,
    )
    return flat, weights


def bin_phase_space(
    x: np.ndarray,
    v: np.ndarray,
    grid: PhaseSpaceGrid,
    order: str = "ngp",
    dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Count particles per phase-space cell.

    ``order="ngp"`` reproduces the paper's counting histogram;
    ``order="cic"`` spreads each particle bilinearly over the four
    neighbouring cells (periodic in x, clamped in v), which reduces the
    binning noise the paper identifies as a limitation.  Both conserve
    total mass exactly: ``result.sum() == len(x)``.

    NGP counting runs through a single fused ``np.bincount`` over the
    raveled cell indices — several times faster than a 2D
    ``np.add.at`` scatter and exactly equal to it (the counts are
    integers, so no summation-order question arises).
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape or x.ndim != 1:
        raise ValueError(f"x and v must be 1D arrays of equal length, got {x.shape}, {v.shape}")
    if order == "ngp":
        flat = _v_bins(v, grid) * grid.n_x + _x_bins(x, grid)
        hist = np.bincount(flat, minlength=grid.size).astype(np.float64)
        hist = hist.reshape(grid.shape)
    elif order == "cic":
        flat, weights = _cic_flat_scatter(x, v, grid)
        hist = np.zeros(grid.size, dtype=np.float64)
        np.add.at(hist, flat, weights)
        hist = hist.reshape(grid.shape)
    else:
        raise ValueError(f"unknown binning order {order!r}; expected 'ngp' or 'cic'")
    return hist.astype(dtype, copy=False)


def bin_phase_space_batch(
    x: np.ndarray,
    v: np.ndarray,
    grid: PhaseSpaceGrid,
    order: str = "ngp",
    dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Bin a whole ensemble of phase spaces in one fused scatter.

    ``x`` and ``v`` are stacked ``(batch, n)`` arrays; the result is
    ``(batch, n_v, n_x)`` with row ``b`` bitwise identical to
    ``bin_phase_space(x[b], v[b], grid, order)``:

    * NGP: all cell indices are fused into one raveled index array
      (offset by ``b * grid.size`` per row) and counted by a single
      ``np.bincount`` — one C-level pass for the whole ensemble.
    * CIC: the four bilinear corner contributions of every row are
      scattered by one raveled ``np.add.at``.  Rows write to disjoint
      index ranges and each row's updates keep the single-run
      accumulation order, so the float sums match bit for bit.

    Mass is conserved per row: ``result.sum(axis=(1, 2)) == n``.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape or x.ndim != 2:
        raise ValueError(
            f"x and v must be (batch, n) arrays of equal shape, got {x.shape}, {v.shape}"
        )
    batch = x.shape[0]
    offsets = np.arange(batch, dtype=np.int64)[:, None] * grid.size
    if order == "ngp":
        flat = _v_bins(v, grid) * grid.n_x + _x_bins(x, grid) + offsets
        hist = np.bincount(flat.ravel(), minlength=batch * grid.size).astype(np.float64)
    elif order == "cic":
        flat, weights = _cic_flat_scatter(x, v, grid)
        hist = np.zeros(batch * grid.size, dtype=np.float64)
        np.add.at(hist, (flat + offsets).ravel(), weights.ravel())
    else:
        raise ValueError(f"unknown binning order {order!r}; expected 'ngp' or 'cic'")
    return hist.reshape(batch, *grid.shape).astype(dtype, copy=False)
