"""Two-stream particle loading."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.pic.particles import ParticleSet, load_two_stream


class TestParticleSet:
    def test_length(self):
        ps = ParticleSet(np.zeros(5), np.zeros(5), charge=-0.1, mass=0.1)
        assert len(ps) == 5

    def test_qm(self):
        ps = ParticleSet(np.zeros(2), np.zeros(2), charge=-0.2, mass=0.2)
        assert ps.qm == pytest.approx(-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros(3), np.zeros(4), charge=-1.0, mass=1.0)

    def test_2d_arrays_accepted_as_batch(self):
        p = ParticleSet(np.zeros((3, 5)), np.zeros((3, 5)), charge=-1.0, mass=1.0)
        assert p.batch == 3
        assert len(p) == 5

    def test_1d_set_has_batch_one(self):
        p = ParticleSet(np.zeros(4), np.zeros(4), charge=-1.0, mass=1.0)
        assert p.batch == 1

    def test_3d_arrays_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), charge=-1.0, mass=1.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros(2), np.zeros(2), charge=-1.0, mass=0.0)

    def test_copy_is_deep(self):
        ps = ParticleSet(np.zeros(3), np.ones(3), charge=-1.0, mass=1.0)
        clone = ps.copy()
        clone.x[0] = 9.0
        assert ps.x[0] == 0.0

    def test_kinetic_energy_and_momentum(self):
        ps = ParticleSet(np.zeros(2), np.array([1.0, -3.0]), charge=-1.0, mass=2.0)
        assert ps.kinetic_energy() == pytest.approx(0.5 * 2.0 * 10.0)
        assert ps.momentum() == pytest.approx(2.0 * (-2.0))


class TestRandomLoading:
    def test_particle_count(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=10, seed=0)
        assert len(load_two_stream(cfg)) == 80

    def test_positions_inside_box(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=50, seed=1)
        ps = load_two_stream(cfg)
        assert np.all(ps.x >= 0.0)
        assert np.all(ps.x < cfg.box_length)

    def test_two_symmetric_beams(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=500, v0=0.2, vth=0.0, seed=2)
        ps = load_two_stream(cfg)
        assert np.sum(ps.v > 0) == len(ps) // 2
        np.testing.assert_allclose(np.sort(np.unique(ps.v)), [-0.2, 0.2])

    def test_thermal_spread_statistics(self):
        cfg = SimulationConfig(n_cells=64, particles_per_cell=500, v0=0.2, vth=0.05, seed=3)
        ps = load_two_stream(cfg)
        beam = ps.v[ps.v > 0]
        assert beam.mean() == pytest.approx(0.2, abs=3 * 0.05 / np.sqrt(beam.size))
        assert beam.std() == pytest.approx(0.05, rel=0.05)

    def test_seed_reproducibility(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=20, seed=42)
        a = load_two_stream(cfg)
        b = load_two_stream(cfg)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.v, b.v)

    def test_different_seeds_differ(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=20)
        a = load_two_stream(cfg.with_updates(seed=1))
        b = load_two_stream(cfg.with_updates(seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_explicit_rng_overrides_seed(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=20, seed=1)
        a = load_two_stream(cfg, rng=np.random.default_rng(99))
        b = load_two_stream(cfg, rng=np.random.default_rng(99))
        c = load_two_stream(cfg)
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_charge_and_mass_from_config(self):
        cfg = SimulationConfig(n_cells=8, particles_per_cell=10, seed=0)
        ps = load_two_stream(cfg)
        assert ps.charge == pytest.approx(cfg.particle_charge)
        assert ps.mass == pytest.approx(cfg.particle_mass)

    def test_odd_particle_count_rejected(self):
        cfg = SimulationConfig(n_cells=3, particles_per_cell=5, seed=0)
        with pytest.raises(ValueError, match="even particle count"):
            load_two_stream(cfg)


class TestQuietLoading:
    def test_quiet_positions_evenly_spaced(self):
        cfg = SimulationConfig(
            n_cells=8, particles_per_cell=10, loading="quiet", vth=0.0, seed=0
        )
        ps = load_two_stream(cfg)
        half = len(ps) // 2
        spacing = np.diff(np.sort(ps.x[:half]))
        np.testing.assert_allclose(spacing, cfg.box_length / half, atol=1e-12)

    def test_quiet_cold_beams_produce_tiny_initial_field_noise(self):
        """Quiet start suppresses the density noise of random loading."""
        from repro.pic.grid import Grid1D
        from repro.pic.interpolation import charge_density

        base = SimulationConfig(n_cells=32, particles_per_cell=100, vth=0.0, seed=5)
        grid = Grid1D(base.n_cells, base.box_length)
        noisy = load_two_stream(base.with_updates(loading="random"))
        quiet = load_two_stream(base.with_updates(loading="quiet"))
        rho_noisy = charge_density(grid, noisy.x, base.particle_charge)
        rho_quiet = charge_density(grid, quiet.x, base.particle_charge)
        assert np.abs(rho_quiet).max() < 0.01 * np.abs(rho_noisy).max()

    def test_perturbation_seeds_requested_mode(self):
        from repro.engines.observables import mode_spectrum
        from repro.pic.grid import Grid1D
        from repro.pic.interpolation import charge_density

        cfg = SimulationConfig(
            n_cells=64, particles_per_cell=100, loading="quiet", vth=0.0,
            perturbation=0.05, perturbation_mode=3, seed=0,
        )
        ps = load_two_stream(cfg)
        grid = Grid1D(cfg.n_cells, cfg.box_length)
        rho = charge_density(grid, ps.x, cfg.particle_charge)
        spectrum = mode_spectrum(rho)
        assert np.argmax(spectrum[1:]) + 1 == 3
        assert spectrum[3] == pytest.approx(0.05, rel=0.05)
