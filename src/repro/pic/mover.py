"""Particle movers (pushers).

The paper uses the classic 1D electrostatic leapfrog (Eqs. 1-2):

.. math::
    v^{n+1/2} = v^{n-1/2} + (q/m) E^n(x^n) \\Delta t \\\\
    x^{n+1}   = x^n + v^{n+1/2} \\Delta t

A Boris pusher (with optional magnetic field) is included as the
standard extension point for electromagnetic problems; with ``B = 0``
it reduces exactly to the leapfrog velocity update.

All pushers are purely elementwise, so they operate unchanged on a
single run (arrays of shape ``(n,)``) or on a stacked ensemble of
independent runs (``(batch, n)``) — the batched update of row ``b`` is
bitwise identical to pushing that row alone.

:func:`push_positions` wraps only the particles that crossed a
periodic boundary, not the whole array (see :func:`_wrap_escapers`).
"""

from __future__ import annotations

import numpy as np


def push_velocities(
    v: np.ndarray, e_at_particles: np.ndarray, qm: float, dt: float
) -> np.ndarray:
    """Leapfrog velocity update (Eq. 2); returns a new array."""
    return v + qm * e_at_particles * dt


def _wrap_escapers(y: np.ndarray, length: float) -> np.ndarray:
    """Periodically wrap, in place, only the elements outside ``[0, L)``.

    A step moves a particle by far less than ``L``, so only the few
    particles that crossed a boundary need the (costly) wrap; the rest
    are already in range.  The mask also catches ``-0.0``, the one
    in-range value ``np.mod`` changes (to ``+0.0``), so on float64 the
    result equals ``np.mod(y, L)`` bit for bit.  The float32 tier wraps
    its escapers with ``y - floor(y / L) * L``, which is several times
    cheaper than ``np.mod`` and equal to it up to single-precision
    rounding (an escaper may land exactly on ``L``, which the grid
    treats as node 0).
    """
    single = y.dtype == np.float32
    bound = np.float32(length) if single else length
    escaped = np.signbit(y)
    escaped |= y >= bound
    if escaped.any():
        e = y[escaped]
        y[escaped] = e - np.floor(e / bound) * bound if single else np.mod(e, length)
    return y


def push_positions(x: np.ndarray, v: np.ndarray, dt: float, length: float) -> np.ndarray:
    """Leapfrog position update (Eq. 1) with periodic wrapping.

    Returns a new array.  Only the particles that left ``[0, L)`` are
    wrapped (:func:`_wrap_escapers`): on float64 the result is bitwise
    ``np.mod(x + v * dt, L)``.  On float32 an in-range particle is
    never touched, so a position whose ``x / L`` rounds to 1.0 stays
    just below ``L`` rather than being mapped to a tiny negative value
    as the former all-particle floor wrap did.
    """
    return _wrap_escapers(x + v * dt, length)


def rewind_velocities(
    v: np.ndarray, e_at_particles: np.ndarray, qm: float, dt: float
) -> np.ndarray:
    """Shift velocities from ``t=0`` back to ``t=-dt/2`` to start leapfrog.

    Standard leapfrog initialization: the loaded velocities are defined
    at integer time 0 while the scheme stores them at half steps.
    """
    return v - 0.5 * qm * e_at_particles * dt


def boris_push_velocities(
    v: np.ndarray,
    e_at_particles: np.ndarray,
    qm: float,
    dt: float,
    b: float = 0.0,
) -> np.ndarray:
    """Boris rotation pusher for 1D motion with an out-of-plane ``B``.

    For a particle moving in x with ``B = B e_z`` the in-plane velocity
    ``(v_x, v_y)`` rotates; this 1D reduction tracks only ``v_x`` and
    assumes ``v_y = 0`` each step, so it is exact for ``B = 0`` (where
    it coincides with :func:`push_velocities`) and provided as the
    electromagnetic extension hook.
    """
    half_accel = 0.5 * qm * e_at_particles * dt
    v_minus = v + half_accel
    if b == 0.0:
        return v_minus + half_accel
    t = 0.5 * qm * b * dt
    s = 2.0 * t / (1.0 + t * t)
    # v' = v- + v- x t ; v+ = v- + v' x s  (2D rotation, v_y starts at 0)
    vx_minus, vy_minus = v_minus, np.zeros_like(v_minus)
    vx_prime = vx_minus + vy_minus * t
    vy_prime = vy_minus - vx_minus * t
    vx_plus = vx_minus + vy_prime * s
    return vx_plus + half_accel
