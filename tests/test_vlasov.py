"""Semi-Lagrangian Vlasov-Poisson solver."""

import numpy as np
import pytest

from repro.phasespace.binning import PhaseSpaceGrid
from repro.config import SimulationConfig
from repro.vlasov.ensemble import vlasov_config_from
from repro.vlasov.harvest import expected_counts, harvest_vlasov_ensemble
from repro.vlasov.solver import (
    VlasovConfig,
    VlasovSimulation,
    two_stream_distribution,
    _shift_clamped_columns,
    _shift_periodic_rows,
)


def _small_config(**overrides) -> VlasovConfig:
    defaults = dict(n_x=32, n_v=64, dt=0.1, n_steps=20, v0=0.2, vth=0.03,
                    perturbation=1e-3)
    defaults.update(overrides)
    return VlasovConfig(**defaults)


def _harvest_config(**overrides) -> SimulationConfig:
    """A ``solver="vlasov"`` run on the ``_small_config`` grid."""
    defaults = dict(n_cells=32, dt=0.1, n_steps=20, v0=0.2, vth=0.03,
                    perturbation=1e-3, solver="vlasov", extra={"n_v": 64})
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _harvest_grid(cfg: SimulationConfig) -> PhaseSpaceGrid:
    vcfg = vlasov_config_from(cfg)
    return PhaseSpaceGrid(n_x=vcfg.n_x, n_v=vcfg.n_v, box_length=vcfg.box_length,
                          v_min=vcfg.v_min, v_max=vcfg.v_max)


class TestConfig:
    def test_cold_beams_rejected(self):
        with pytest.raises(ValueError, match="vth > 0"):
            VlasovConfig(vth=0.0)

    def test_grid_spacings(self):
        cfg = _small_config()
        assert cfg.dx == pytest.approx(cfg.box_length / 32)
        assert cfg.dv == pytest.approx(1.0 / 64)

    @pytest.mark.parametrize(
        "kwargs", [{"n_x": 1}, {"v_min": 1.0, "v_max": 0.0}, {"dt": 0.0}]
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            _small_config(**kwargs)


class TestInitialCondition:
    def test_mean_density_is_one(self):
        cfg = _small_config()
        f = two_stream_distribution(cfg)
        density = f.sum(axis=0) * cfg.dv
        assert density.mean() == pytest.approx(1.0, rel=1e-12)

    def test_two_beams_centered_at_plus_minus_v0(self):
        cfg = _small_config()
        f = two_stream_distribution(cfg)
        fv = f.sum(axis=1)
        v = cfg.v_centers()
        peaks = v[np.argsort(fv)[-2:]]
        assert sorted(np.round(np.abs(peaks), 2)) == [0.2, 0.2]

    def test_perturbation_modulates_density(self):
        cfg = _small_config(perturbation=0.05)
        f = two_stream_distribution(cfg)
        density = f.sum(axis=0) * cfg.dv
        assert density.max() - density.min() == pytest.approx(0.1, rel=0.01)

    def test_distribution_nonnegative(self):
        f = two_stream_distribution(_small_config())
        assert np.all(f >= 0)


class TestShifts:
    def test_integer_row_shift_is_exact_roll(self):
        rng = np.random.default_rng(0)
        f = rng.random((4, 8))
        shifted = _shift_periodic_rows(f, np.array([1.0, 2.0, 0.0, -1.0]))
        np.testing.assert_allclose(shifted[0], np.roll(f[0], 1), atol=1e-14)
        np.testing.assert_allclose(shifted[1], np.roll(f[1], 2), atol=1e-14)
        np.testing.assert_allclose(shifted[2], f[2], atol=1e-14)
        np.testing.assert_allclose(shifted[3], np.roll(f[3], -1), atol=1e-14)

    def test_fractional_row_shift_interpolates(self):
        f = np.zeros((1, 4))
        f[0, 1] = 1.0
        shifted = _shift_periodic_rows(f, np.array([0.5]))
        np.testing.assert_allclose(shifted[0], [0.0, 0.5, 0.5, 0.0])

    def test_row_shift_conserves_mass(self):
        rng = np.random.default_rng(1)
        f = rng.random((6, 12))
        shifted = _shift_periodic_rows(f, rng.uniform(-3, 3, 6))
        assert shifted.sum() == pytest.approx(f.sum(), rel=1e-12)

    def test_column_shift_zero_inflow(self):
        f = np.ones((4, 2))
        shifted = _shift_clamped_columns(f, np.array([1.0, -1.0]))
        # Shift down by one: top row receives zero inflow.
        np.testing.assert_allclose(shifted[:, 0], [0.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(shifted[:, 1], [1.0, 1.0, 1.0, 0.0])

    def test_column_shift_integer_exact(self):
        rng = np.random.default_rng(2)
        f = rng.random((6, 3))
        shifted = _shift_clamped_columns(f, np.array([2.0, 0.0, -1.0]))
        np.testing.assert_allclose(shifted[2:, 0], f[:-2, 0], atol=1e-14)
        np.testing.assert_allclose(shifted[:, 1], f[:, 1], atol=1e-14)
        np.testing.assert_allclose(shifted[:-1, 2], f[1:, 2], atol=1e-14)


class TestConservation:
    def test_mass_conserved(self):
        cfg = _small_config()
        sim = VlasovSimulation(cfg)
        m0 = sim.mass()
        sim.run(20)
        assert sim.mass() == pytest.approx(m0, rel=1e-10)

    def test_energy_approximately_conserved(self):
        cfg = _small_config(n_steps=50)
        sim = VlasovSimulation(cfg)
        h = sim.run(50)
        total = h["total"]
        assert np.max(np.abs(total - total[0])) / total[0] < 0.05

    def test_momentum_near_zero(self):
        sim = VlasovSimulation(_small_config())
        h = sim.run(10)
        assert np.all(np.abs(h["momentum"]) < 1e-6)

    def test_distribution_stays_nonnegative_mostly(self):
        """Linear interpolation is positivity-preserving."""
        sim = VlasovSimulation(_small_config())
        sim.run(20)
        assert sim.f.min() >= -1e-12


class TestPhysics:
    def test_two_stream_growth_rate(self):
        """The Vlasov run reproduces the analytic growth rate too."""
        from repro.theory.dispersion import growth_rate_cold
        from repro.theory.growth import fit_growth_rate

        cfg = VlasovConfig(n_x=64, n_v=128, dt=0.1, v0=0.2, vth=0.025,
                           perturbation=1e-3)
        sim = VlasovSimulation(cfg)
        h = sim.run(200)
        fit = fit_growth_rate(h["time"], h["mode1"])
        gamma = growth_rate_cold(2 * np.pi / cfg.box_length, cfg.v0)
        assert fit.relative_error(gamma) < 0.25
        assert fit.r_squared > 0.95

    def test_free_streaming_without_charge_coupling(self):
        """With the perturbation off, the state stays near equilibrium."""
        cfg = _small_config(perturbation=0.0, n_steps=30)
        sim = VlasovSimulation(cfg)
        h = sim.run(30)
        assert np.all(h["mode1"] < 1e-10)


class TestHarvest:
    def test_expected_counts_total(self):
        cfg = _small_config()
        grid = PhaseSpaceGrid(n_x=32, n_v=64, box_length=cfg.box_length,
                              v_min=cfg.v_min, v_max=cfg.v_max)
        f = two_stream_distribution(cfg)
        counts = expected_counts(f, cfg, grid, n_particles=64000)
        assert counts.sum() == pytest.approx(64000, rel=1e-9)

    def test_coarsening_preserves_mass(self):
        cfg = _small_config(n_x=32, n_v=64)
        grid = PhaseSpaceGrid(n_x=16, n_v=16, box_length=cfg.box_length,
                              v_min=cfg.v_min, v_max=cfg.v_max)
        f = two_stream_distribution(cfg)
        counts = expected_counts(f, cfg, grid, n_particles=1000)
        assert counts.shape == grid.shape
        assert counts.sum() == pytest.approx(1000, rel=1e-9)

    def test_incompatible_grids_rejected(self):
        cfg = _small_config(n_x=32, n_v=64)
        grid = PhaseSpaceGrid(n_x=24, n_v=16, box_length=cfg.box_length,
                              v_min=cfg.v_min, v_max=cfg.v_max)
        with pytest.raises(ValueError, match="tile"):
            expected_counts(two_stream_distribution(cfg), cfg, grid, 100)

    def test_mismatched_window_rejected(self):
        cfg = _small_config()
        grid = PhaseSpaceGrid(n_x=32, n_v=64, box_length=cfg.box_length,
                              v_min=-1.0, v_max=1.0)
        with pytest.raises(ValueError, match="windows differ"):
            expected_counts(two_stream_distribution(cfg), cfg, grid, 100)

    def test_harvest_dataset_shapes_and_stride(self):
        cfg = _harvest_config(n_steps=10)
        data = harvest_vlasov_ensemble([cfg], _harvest_grid(cfg), n_particles=5000, stride=2)
        # Initial state + steps 2, 4, 6, 8, 10.
        assert len(data) == 6
        assert data.inputs.shape == (6, 64, 32)
        assert data.params[0, 2] == -1.0  # Vlasov sentinel seed

    def test_harvested_pairs_train_the_same_pipeline(self):
        """Vlasov data slots into the standard training stack."""
        from repro.models.architectures import build_mlp
        from repro.nn.losses import MSELoss
        from repro.nn.optimizers import Adam
        from repro.nn.training import Trainer
        from repro.phasespace.normalization import MinMaxNormalizer

        cfg = _harvest_config(n_steps=30, perturbation=0.01)
        grid = _harvest_grid(cfg)
        data = harvest_vlasov_ensemble([cfg], grid, n_particles=10000)
        norm = MinMaxNormalizer().fit(data.inputs)
        model = build_mlp(input_size=grid.size, output_size=32, hidden_size=16, rng=0)
        trainer = Trainer(model, MSELoss(), Adam(lr=1e-3))
        history = trainer.fit(norm.transform(data.flat_inputs()), data.targets,
                              epochs=5, batch_size=8, rng=0)
        assert history.loss[-1] < history.loss[0]


class TestEnsembleHarvest:
    def test_batched_harvest_matches_solo_harvests(self):
        """Registry-routed batched harvest == per-config solo harvests."""
        from repro.pic.scenarios import load_distribution

        grid = PhaseSpaceGrid(n_x=32, n_v=64, box_length=VlasovConfig().box_length,
                              v_min=-0.5, v_max=0.5)
        configs = [
            SimulationConfig(n_cells=32, n_steps=6, vth=0.03, v0=0.2, solver="vlasov",
                             extra={"n_v": 64}, perturbation=1e-3),
            SimulationConfig(n_cells=32, n_steps=6, vth=0.05, v0=0.2, solver="vlasov",
                             extra={"n_v": 64}, scenario="landau_damping"),
        ]
        batched = harvest_vlasov_ensemble(configs, grid, n_particles=5000, stride=2)
        assert len(batched) == 2 * 4  # init + steps 2, 4, 6 per run, run-major
        offset = 0
        for cfg in configs:
            vcfg = vlasov_config_from(cfg)
            sim = VlasovSimulation(vcfg, f0=load_distribution(cfg))
            solo_inputs = [expected_counts(sim.f, vcfg, grid, 5000)]
            solo_targets = [sim.efield.copy()]
            for i in range(1, 7):
                sim.step()
                if i % 2 == 0:
                    solo_inputs.append(expected_counts(sim.f, vcfg, grid, 5000))
                    solo_targets.append(sim.efield.copy())
            for k in range(4):
                np.testing.assert_array_equal(batched.inputs[offset + k], solo_inputs[k])
                np.testing.assert_array_equal(batched.targets[offset + k], solo_targets[k])
            assert batched.params[offset, 2] == -1.0  # deterministic-run sentinel
            offset += 4


class TestLandauDamping:
    def test_langmuir_wave_landau_damping(self):
        """Beyond-paper validation: a Maxwellian plasma Landau-damps a
        seeded Langmuir wave at close to the kinetic-theory rate.

        For k*lambda_D = 0.5 linear theory gives omega ~ 1.4156 and
        gamma ~ -0.1533; the envelope fit includes the initial
        transient, so tolerances are generous."""
        from scipy.signal import argrelmax

        k = 0.5
        cfg = VlasovConfig(
            box_length=2 * np.pi / k, n_x=64, n_v=256, v_min=-6.0, v_max=6.0,
            dt=0.05, n_steps=400, v0=1e-12, vth=1.0, perturbation=0.01,
        )
        sim = VlasovSimulation(cfg)
        h = sim.run(400)
        e1, t = h["mode1"], h["time"]
        peaks = argrelmax(e1, order=3)[0]
        peaks = peaks[t[peaks] < 15.0]
        assert peaks.size >= 4
        gamma = np.polyfit(t[peaks], np.log(e1[peaks]), 1)[0]
        assert gamma == pytest.approx(-0.1533, rel=0.35)
        # |E1| peaks twice per oscillation period.
        omega = 2 * np.pi / (2 * np.mean(np.diff(t[peaks])))
        assert omega == pytest.approx(1.4156, rel=0.05)
