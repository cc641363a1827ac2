"""Particle-grid interpolation (gather) and deposition (scatter).

Implements the three classic B-spline shape functions of increasing
order (Birdsall & Langdon, Ch. 8):

* ``"ngp"`` — Nearest Grid Point, zeroth order (the paper's phase-space
  binning choice);
* ``"cic"`` — Cloud-in-Cell, linear (the workhorse of traditional PIC);
* ``"tsc"`` — Triangular-Shaped Cloud, quadratic (the "higher-order
  interpolation functions" the paper suggests for training data).

The same shape function is used for both gather and deposit so the
resulting traditional PIC method is momentum conserving.

All routines are fully vectorized: deposits use ``np.add.at`` on index
arrays, gathers use fancy indexing.  Positions are assumed periodic on
``[0, L)``; callers should wrap positions first (``Grid1D.wrap``),
although a single wrap is also applied defensively here (skipped when
the positions are already in range, as they always are in the PIC
cycle, whose mover wraps the particles that crossed a boundary).

The gather itself is stateless.  The PIC engine
(``repro.pic.simulation.EnsembleSimulation``) calls it once per step
and caches the result for the next step, which starts with the same
gather; while cached, the engine's positions and field arrays are
read-only.

The batched CIC gather and the float32 CIC deposit
index grid rows padded with two periodic ghost nodes, so the stencil
nodes ``j`` and ``j + 1`` need no index wrap.  The gather reads the same
field samples, so it stays bitwise; the float32 deposit folds the ghost
nodes back onto nodes 0 and 1, a different summation order that only
the float32 tier's tolerance admits.

Every routine accepts either a single run — ``positions`` of shape
``(n,)`` — or a stacked ensemble of independent runs — ``positions`` of
shape ``(batch, n)``.  Batched deposits scatter each row into its own
output row through offset flat indices (one ``np.add.at`` call for the
whole ensemble); batched gathers read each row's field through the same
flattening.  Row ``b`` of a batched result is bitwise identical to the
corresponding single-run call, which is what lets the ensemble engine
reproduce sequential runs exactly.

Both routines take an optional kernel ``backend`` (``repro.kernels``):
the batched work is expressed as a slab function over contiguous row
ranges, so the threaded backend can chunk independent rows across its
pool and the numba backend can swap in its jitted float64 loops —
always reproducing the reference rows bit for bit.  ``backend=None``
is the reference path itself (one full slab, zero overhead).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import KernelBackend, NumbaBackend
from repro.pic.grid import Grid1D

_ORDERS = ("ngp", "cic", "tsc")


def _run_rows(backend: "KernelBackend | None", n_rows: int, fn) -> None:
    """Execute a slab function through ``backend`` (None = one slab)."""
    if backend is None:
        fn(0, n_rows)
    else:
        backend.run_rows(n_rows, fn)


def _jit_kernels(backend: "KernelBackend | None"):
    """The numba kernel module when ``backend`` carries live JIT kernels."""
    if isinstance(backend, NumbaBackend):
        return backend.jit
    return None


def _check_order(order: str) -> None:
    if order not in _ORDERS:
        raise ValueError(f"unknown interpolation order {order!r}; expected one of {_ORDERS}")


def _check_positions(positions: np.ndarray) -> np.ndarray:
    """Coerce positions to a float dtype and check the shape.

    float32 inputs stay float32 (the reduced-precision serving tier
    runs the whole cycle in single precision); everything else is
    coerced to float64 exactly as before, so float64 callers keep the
    historical bit-for-bit behavior.  Shapes other than ``(n,)`` and
    ``(batch, n)`` are rejected.
    """
    x = np.asarray(positions)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(
            "positions must be a 1-D (n,) array or a 2-D batched (batch, n) "
            f"array, got shape {x.shape}"
        )
    return x


def _wrap_positions(x: np.ndarray, length: float) -> np.ndarray:
    """Defensive periodic wrap, skipped when already in ``[0, L)``.

    ``np.mod`` is an identity on in-range values, so the fast path is
    bitwise equivalent — it just avoids a full division pass over what
    is, in the PIC cycle, always pre-wrapped data.  The float32 tier's
    cheap wrap (:func:`repro.pic.mover.push_positions`) can land a
    particle exactly *on* ``L``; index ``n_cells`` wraps to node 0 with
    the correct weights, so such positions pass through too.
    """
    if x.size and 0.0 <= x.min():
        xmax = x.max()
        if xmax < length or (xmax == length and x.dtype == np.float32):
            return x
    return np.mod(x, length)


def _wrap_indices(j: np.ndarray, n: int) -> np.ndarray:
    """Periodic index wrap; bit-mask fast path for power-of-two grids.

    Two's-complement ``j & (n - 1)`` equals ``j % n`` for every integer
    when ``n`` is a power of two (it keeps the low bits, i.e. the value
    modulo ``2**k``), and is roughly an order of magnitude cheaper than
    the integer-division modulo.
    """
    if n & (n - 1) == 0:
        return j & (n - 1)
    return j % n


def _floor_indices(s: np.ndarray) -> np.ndarray:
    """``floor(s)`` as int64 indices for non-negative grid coordinates.

    The float64 path keeps the historical ``np.floor`` + ``astype``
    pair bit-for-bit.  The float32 tier truncates directly — identical
    to ``floor`` because positions are pre-wrapped to ``[0, L]`` so
    ``s >= 0`` — which skips a full array pass on the hot path.
    """
    if s.dtype == np.float32:
        return s.astype(np.int64)
    return np.floor(s).astype(np.int64)


def _ngp_indices(x: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Index of the nearest grid node, periodic."""
    return _wrap_indices(_floor_indices(x / grid.dx + 0.5), grid.n_cells)


def _cic_floor_frac(x: np.ndarray, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped left node index (in ``[0, n_cells]``) and right weight."""
    s = x / grid.dx
    j = _floor_indices(s)
    # float32 - int64 would promote to float64; keep the tier's dtype.
    frac = s - (j if s.dtype == np.float64 else j.astype(s.dtype))
    return j, frac


def _cic_indices_weights(
    x: np.ndarray, grid: Grid1D
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Left/right node indices and weights for linear interpolation."""
    j, frac = _cic_floor_frac(x, grid)
    j_left = _wrap_indices(j, grid.n_cells)
    j_right = _wrap_indices(j + 1, grid.n_cells)
    return j_left, j_right, 1.0 - frac, frac


def _tsc_indices_weights(
    x: np.ndarray, grid: Grid1D
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Three node indices and quadratic-spline weights per particle."""
    s = x / grid.dx
    j = _floor_indices(s + 0.5)  # nearest node
    d = s - (j if s.dtype == np.float64 else j.astype(s.dtype))  # in [-1/2, 1/2)
    w_center = 0.75 - d * d
    w_left = 0.5 * (0.5 - d) ** 2
    w_right = 0.5 * (0.5 + d) ** 2
    n = grid.n_cells
    return (
        _wrap_indices(j - 1, n),
        _wrap_indices(j, n),
        _wrap_indices(j + 1, n),
        w_left,
        w_center,
        w_right,
    )


def deposit(
    grid: Grid1D,
    positions: np.ndarray,
    weights: "np.ndarray | float",
    order: str = "cic",
    backend: "KernelBackend | None" = None,
) -> np.ndarray:
    """Scatter per-particle ``weights`` onto grid nodes.

    Returns the *node density*: the weighted shape-function sum divided
    by ``dx``, so depositing particle charges yields a charge density.
    The total deposited weight is conserved exactly for every order:
    ``deposit(...).sum() * dx == weights.sum()``.

    ``positions`` may be ``(n,)`` (returns ``(n_cells,)``) or a batched
    ``(batch, n)`` stack of independent runs (returns
    ``(batch, n_cells)``, each row deposited independently).  Any other
    shape, or ``weights`` that do not broadcast against ``positions``,
    raises ``ValueError``.  ``backend`` selects how the independent
    rows execute (see the module docstring); every backend reproduces
    the default's rows bit for bit.
    """
    _check_order(order)
    x = _wrap_positions(_check_positions(positions), grid.length)
    try:
        w = np.broadcast_to(np.asarray(weights, dtype=x.dtype), x.shape)
    except ValueError:
        raise ValueError(
            f"weights of shape {np.shape(weights)} do not broadcast to "
            f"positions of shape {x.shape}"
        ) from None
    batched = x.ndim == 2
    x2 = np.atleast_2d(x)
    w2 = np.atleast_2d(w)
    batch = x2.shape[0]
    # The density accumulates in the positions' dtype: float64 runs keep
    # the historical bit-for-bit accumulation, float32 runs accumulate
    # (and return) single precision.
    out = np.zeros((batch, grid.n_cells), dtype=x.dtype)
    jit = _jit_kernels(backend)
    if jit is not None and x.dtype == np.float64:
        def slab(lo: int, hi: int) -> None:
            jit.deposit_rows(
                out[lo:hi], x2[lo:hi], np.ascontiguousarray(w2[lo:hi]),
                grid.dx, jit.ORDER_CODES[order],
            )
    else:
        def slab(lo: int, hi: int) -> None:
            # Offset flat indices scatter every row of the slab into its
            # own output row with a single np.add.at; the indices and
            # weight products are raveled because ufunc.at is several
            # times faster on 1-D operands than on 2-D ones (the
            # accumulation order — and hence the bit pattern — is
            # identical either way, and independent of the slab bounds).
            xs = x2[lo:hi]
            ws = w2[lo:hi]
            flat = out[lo:hi].reshape(-1)
            offs = (np.arange(hi - lo, dtype=np.int64) * grid.n_cells)[:, None]

            def scatter(j: np.ndarray, wj: np.ndarray) -> None:
                np.add.at(flat, (offs + j).ravel(), wj.ravel())

            if order == "ngp":
                scatter(_ngp_indices(xs, grid), np.ascontiguousarray(ws))
            elif order == "cic" and xs.dtype == np.float32:
                # float32 tier: scatter into rows padded with two ghost
                # nodes and fold those onto nodes 0 and 1, so neither
                # index is wrapped.  The fold sums node 0/1 in a
                # different order than the wrapped scatter, a rounding
                # difference the tier's tolerance allows.
                j, frac = _cic_floor_frac(xs, grid)
                n_ext = grid.n_cells + 2
                ext = np.zeros((hi - lo, n_ext), dtype=xs.dtype)
                idx = ((np.arange(hi - lo, dtype=np.int64) * n_ext)[:, None] + j).ravel()
                ext_flat = ext.reshape(-1)
                np.add.at(ext_flat, idx, (ws * (1.0 - frac)).ravel())
                np.add.at(ext_flat[1:], idx, (ws * frac).ravel())
                ext[:, :2] += ext[:, -2:]
                out[lo:hi] = ext[:, :-2]
            elif order == "cic":
                jl, jr, wl, wr = _cic_indices_weights(xs, grid)
                scatter(jl, ws * wl)
                scatter(jr, ws * wr)
            else:  # tsc
                jl, jc, jr, wl, wc, wr = _tsc_indices_weights(xs, grid)
                scatter(jl, ws * wl)
                scatter(jc, ws * wc)
                scatter(jr, ws * wr)

    _run_rows(backend, batch, slab)
    out /= grid.dx
    return out if batched else out[0]


def gather(
    grid: Grid1D,
    field: np.ndarray,
    positions: np.ndarray,
    order: str = "cic",
    backend: "KernelBackend | None" = None,
) -> np.ndarray:
    """Interpolate a node-defined ``field`` to particle ``positions``.

    With 1-D positions the field must be ``(n_cells,)``.  With batched
    ``(batch, n)`` positions the field may be ``(batch, n_cells)`` (one
    field per run) or ``(n_cells,)`` (shared across the ensemble); the
    result is ``(batch, n)``.  ``backend`` routes the batched rows (see
    the module docstring); results are bit-identical for every backend.
    """
    _check_order(order)
    field = np.asarray(field)
    if field.dtype != np.float32:
        field = np.asarray(field, dtype=np.float64)
    x = _wrap_positions(_check_positions(positions), grid.length)
    if x.ndim == 1:
        if field.shape != (grid.n_cells,):
            raise ValueError(f"field has shape {field.shape}, expected ({grid.n_cells},)")
        if order == "ngp":
            return field[_ngp_indices(x, grid)]
        if order == "cic":
            jl, jr, wl, wr = _cic_indices_weights(x, grid)
            return field[jl] * wl + field[jr] * wr
        jl, jc, jr, wl, wc, wr = _tsc_indices_weights(x, grid)
        return field[jl] * wl + field[jc] * wc + field[jr] * wr

    batch = x.shape[0]
    per_row = field.ndim == 2
    if field.ndim == 1 and field.shape == (grid.n_cells,):
        # Field shared across the ensemble: plain fancy indexing with the
        # index arrays reads it directly — no offsets, no copy.
        def pick(j: np.ndarray, lo: int) -> np.ndarray:
            return field[j]

    elif field.shape == (batch, grid.n_cells):
        flat = np.ascontiguousarray(field).reshape(-1)
        offs = (np.arange(batch, dtype=np.int64) * grid.n_cells)[:, None]

        def pick(j: np.ndarray, lo: int) -> np.ndarray:
            # 1-D fancy indexing is measurably faster than 2-D.
            return flat[(offs[lo : lo + j.shape[0]] + j).ravel()].reshape(j.shape)

    else:
        raise ValueError(
            f"field has shape {field.shape}, expected ({grid.n_cells},) or "
            f"({batch}, {grid.n_cells}) for batched positions"
        )
    # ngp copies field samples verbatim; the weighted orders promote the
    # field against the positions-dtype weights exactly as the reference
    # expressions always have.
    out_dtype = field.dtype if order == "ngp" else np.result_type(field.dtype, x.dtype)
    out = np.empty(x.shape, dtype=out_dtype)
    jit = _jit_kernels(backend)
    if jit is not None and per_row and x.dtype == np.float64 and field.dtype == np.float64:
        cfield = np.ascontiguousarray(field)

        def slab(lo: int, hi: int) -> None:
            jit.gather_rows(
                out[lo:hi], cfield[lo:hi], x[lo:hi], grid.dx, jit.ORDER_CODES[order]
            )
    else:
        if order == "cic":
            # Field rows padded with two periodic ghost nodes (copies of
            # nodes 0 and 1): the stencil then reads nodes j and j + 1
            # for any unwrapped j in [0, n_cells] without wrapping either
            # index.  Same field samples, same bits; four fewer passes.
            rows = field if per_row else field[None]
            n_ext = grid.n_cells + 2
            ext = np.concatenate([rows, rows[:, :2]], axis=1).reshape(-1)
            ext_offs = (np.arange(batch, dtype=np.int64) * (n_ext if per_row else 0))[:, None]

        def slab(lo: int, hi: int) -> None:
            xs = x[lo:hi]
            if order == "ngp":
                out[lo:hi] = pick(_ngp_indices(xs, grid), lo)
            elif order == "cic":
                j, frac = _cic_floor_frac(xs, grid)
                idx = (ext_offs[lo:hi] + j).ravel()
                out[lo:hi] = (
                    ext[idx].reshape(j.shape) * (1.0 - frac)
                    + ext[1:][idx].reshape(j.shape) * frac
                )
            else:  # tsc
                jl, jc, jr, wl, wc, wr = _tsc_indices_weights(xs, grid)
                out[lo:hi] = (
                    pick(jl, lo) * wl + pick(jc, lo) * wc + pick(jr, lo) * wr
                )

    _run_rows(backend, batch, slab)
    return out


def charge_density(
    grid: Grid1D,
    positions: np.ndarray,
    particle_charge: float,
    order: str = "cic",
    background: float = 1.0,
    backend: "KernelBackend | None" = None,
) -> np.ndarray:
    """Total charge density: deposited electrons plus a uniform ion
    background (the paper's motionless neutralizing protons).

    With the library's normalization (total electron charge ``-L``) the
    mean of the returned density is zero to round-off.  Accepts single
    ``(n,)`` or batched ``(batch, n)`` positions like :func:`deposit`.
    """
    rho = deposit(grid, positions, particle_charge, order=order, backend=backend)
    return rho + background
