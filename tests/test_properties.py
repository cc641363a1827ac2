"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phasespace.binning import PhaseSpaceGrid, _x_bins
from repro.engines.observables import mode_amplitude, mode_spectrum
from repro.pic.grid import Grid1D
from repro.pic.interpolation import deposit, gather
from repro.pic.mover import push_positions
from repro.pic.poisson import solve_poisson_fd, solve_poisson_spectral

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e3, max_value=1e3)


class TestPoissonProperties:
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([8, 16, 32, 64]),
        solver=st.sampled_from([solve_poisson_spectral, solve_poisson_fd]),
    )
    @settings(max_examples=40, deadline=None)
    def test_potential_always_zero_mean(self, seed, n, solver):
        grid = Grid1D(n, 2.0)
        rho = np.random.default_rng(seed).normal(size=n)
        phi = solver(grid, rho)
        assert abs(phi.mean()) < 1e-9

    @given(seed=st.integers(0, 2**16), shift=st.integers(0, 63))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, seed, shift):
        """Rolling rho rolls phi: the solver is translation invariant."""
        grid = Grid1D(64, 2.0)
        rho = np.random.default_rng(seed).normal(size=64)
        phi = solve_poisson_spectral(grid, rho)
        phi_shifted = solve_poisson_spectral(grid, np.roll(rho, shift))
        np.testing.assert_allclose(phi_shifted, np.roll(phi, shift), atol=1e-9)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_parity_symmetry(self, seed):
        """Mirroring rho mirrors phi (even operator)."""
        grid = Grid1D(32, 1.0)
        rho = np.random.default_rng(seed).normal(size=32)
        mirrored = rho[::-1].copy()
        phi = solve_poisson_fd(grid, rho)
        phi_m = solve_poisson_fd(grid, mirrored)
        np.testing.assert_allclose(phi_m, phi[::-1], atol=1e-9)


class TestGatherDepositProperties:
    @given(
        seed=st.integers(0, 2**16),
        order=st.sampled_from(["ngp", "cic", "tsc"]),
        n_particles=st.integers(1, 120),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjointness_property(self, seed, order, n_particles):
        grid = Grid1D(16, 3.0)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, grid.length, n_particles)
        w = rng.normal(size=n_particles)
        field = rng.normal(size=grid.n_cells)
        lhs = np.sum(w * gather(grid, field, x, order=order))
        rhs = grid.dx * np.sum(field * deposit(grid, x, w, order=order))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 2**16), order=st.sampled_from(["ngp", "cic", "tsc"]))
    @settings(max_examples=40, deadline=None)
    def test_gather_bounded_by_field_extrema(self, seed, order):
        """Interpolation never overshoots (shape functions are convex)."""
        grid = Grid1D(16, 3.0)
        rng = np.random.default_rng(seed)
        field = rng.normal(size=grid.n_cells)
        x = rng.uniform(0, grid.length, 50)
        values = gather(grid, field, x, order=order)
        assert values.max() <= field.max() + 1e-12
        assert values.min() >= field.min() - 1e-12


class TestSpectrumProperties:
    @given(seed=st.integers(0, 2**16), n=st.sampled_from([16, 32, 64]))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_from_spectrum_bounds_signal(self, seed, n):
        """max|e| <= sum of mode amplitudes (triangle inequality)."""
        e = np.random.default_rng(seed).normal(size=n)
        spectrum = mode_spectrum(e)
        assert np.abs(e).max() <= spectrum.sum() + 1e-9

    @given(
        amplitude=st.floats(min_value=1e-6, max_value=1e3),
        mode=st.integers(1, 7),
        phase=st.floats(min_value=0, max_value=2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_amplitude_recovery_any_phase(self, amplitude, mode, phase):
        n = 32
        x = 2 * np.pi * np.arange(n) / n
        e = amplitude * np.sin(mode * x + phase)
        assert mode_amplitude(e, mode=mode) == pytest.approx(amplitude, rel=1e-9)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_parseval_energy_identity(self, seed):
        """sum(e^2)/n equals the spectral energy of the amplitudes."""
        n = 64
        e = np.random.default_rng(seed).normal(size=n)
        spec = mode_spectrum(e)
        spectral_energy = spec[0] ** 2 + 0.5 * np.sum(spec[1:-1] ** 2) + spec[-1] ** 2
        assert np.sum(e**2) / n == pytest.approx(spectral_energy, rel=1e-9)


class TestSimulationProperties:
    @given(seed=st.integers(0, 1000), interp=st.sampled_from(["ngp", "cic", "tsc"]))
    @settings(max_examples=10, deadline=None)
    def test_short_run_invariants(self, seed, interp):
        """Any seeded short run keeps particles in the box, conserves the
        particle count and keeps energy finite."""
        from repro.config import SimulationConfig
        from repro.pic.simulation import TraditionalPIC

        cfg = SimulationConfig(
            n_cells=16, particles_per_cell=20, n_steps=5, vth=0.01,
            interpolation=interp, seed=seed,
        )
        sim = TraditionalPIC(cfg)
        hist = sim.run(5)
        assert len(sim.particles) == cfg.n_particles
        assert np.all((sim.particles.x >= 0) & (sim.particles.x < cfg.box_length))
        assert np.all(np.isfinite(hist.as_arrays()["total"]))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_momentum_conservation_property(self, seed):
        from repro.config import SimulationConfig
        from repro.pic.simulation import TraditionalPIC

        cfg = SimulationConfig(
            n_cells=16, particles_per_cell=30, n_steps=8, vth=0.02, seed=seed
        )
        hist = TraditionalPIC(cfg).run(8)
        mom = np.asarray(hist["momentum"])
        assert np.max(np.abs(mom - mom[0])) < 1e-12


def _boundary_positions(length: float):
    """Positions in, on the edges of, and beyond the periodic box."""
    return st.one_of(
        st.floats(0.0, length, exclude_max=True),
        st.sampled_from([0.0, -0.0, length, float(np.nextafter(length, 0.0)),
                         -length, 2.0 * length]),
        st.floats(-3.0 * length, 3.0 * length),
    )


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw float64 bit patterns (tells -0.0 from +0.0)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def _phase_space(draw, length: float):
    """A ``(n,)`` or ``(batch, n)`` pair of positions and velocities.

    Velocities include signed zeros, so the pushed positions hit the
    special values (``-0.0``, ``L``, ``nextafter(L, 0)``) exactly.
    """
    shape = draw(st.sampled_from([(7,), (1, 5), (4, 6)]))
    size = int(np.prod(shape))
    x = draw(st.lists(_boundary_positions(length), min_size=size, max_size=size))
    v = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0 * length, 2.0 * length)),
        min_size=size, max_size=size,
    ))
    return np.array(x).reshape(shape), np.array(v).reshape(shape)


class TestEscaperWrapProperties:
    """``push_positions`` wraps only escapers, yet equals ``np.mod`` bitwise."""

    LENGTH = 2.0 * np.pi / 0.3

    @given(state=_phase_space(LENGTH), dt=st.sampled_from([0.2, 1.0, 0.05]))
    @settings(max_examples=150, deadline=None)
    def test_equals_mod_of_full_push(self, state, dt):
        x, v = state
        pushed = push_positions(x, v, dt, self.LENGTH)
        expected = np.mod(x + v * dt, self.LENGTH)
        np.testing.assert_array_equal(_bits(pushed), _bits(expected))
        assert pushed.shape == x.shape

    def test_signed_zero_and_edges(self):
        length = self.LENGTH
        x = np.array([[0.0, -0.0, length, np.nextafter(length, 0.0), -0.0, 1.0]] * 2)
        v = np.array([[-0.0, -0.0, 0.0, 0.0, 0.0, -0.0]] * 2)
        pushed = push_positions(x, v, 0.2, length)
        np.testing.assert_array_equal(_bits(pushed), _bits(np.mod(x + v * 0.2, length)))
        assert not np.signbit(pushed).any()


class TestXBinsFastPathProperties:
    """``_x_bins`` (with or without its in-range fast path) equals the
    defensive ``floor(mod(x, L) / dx) % n_x`` expression."""

    @staticmethod
    def _reference(x: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
        return np.floor(np.mod(x, grid.box_length) / grid.dx).astype(np.int64) % grid.n_x

    @given(
        n_x=st.sampled_from([16, 64, 24, 50]),
        length=st.sampled_from([1.0, 2.0 * np.pi / 0.3, 7.3]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, n_x, length, data):
        grid = PhaseSpaceGrid(n_x=n_x, n_v=8, box_length=length)
        in_range = data.draw(st.booleans())
        values = (
            st.one_of(st.floats(0.0, length, exclude_max=True),
                      st.sampled_from([0.0, -0.0, float(np.nextafter(length, 0.0))]))
            if in_range else _boundary_positions(length)
        )
        x = np.array(data.draw(st.lists(values, min_size=1, max_size=40)))
        shape = data.draw(st.sampled_from([(x.size,), (1, x.size)]))
        x = x.reshape(shape)
        np.testing.assert_array_equal(_x_bins(x, grid), self._reference(x, grid))
