"""SimulationConfig validation and derived quantities."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.config import (
    SimulationConfig,
    paper_coldbeam_config,
    paper_validation_config,
)


class TestDefaults:
    def test_defaults_match_paper_section_iii(self):
        cfg = SimulationConfig()
        assert cfg.n_cells == 64
        assert cfg.particles_per_cell == 1000
        assert cfg.dt == 0.2
        assert cfg.n_steps == 200
        assert abs(cfg.box_length - 2.0 * math.pi / 3.06) < 1e-15

    def test_total_particles(self):
        assert SimulationConfig().n_particles == 64_000

    def test_dx(self):
        cfg = SimulationConfig(n_cells=64)
        assert abs(cfg.dx - cfg.box_length / 64) < 1e-15

    def test_electron_charge_to_mass_is_minus_one(self):
        assert SimulationConfig().qm == -1.0


class TestNormalization:
    def test_mean_electron_density_is_minus_one(self):
        cfg = SimulationConfig()
        total_charge = cfg.particle_charge * cfg.n_particles
        assert abs(total_charge / cfg.box_length + 1.0) < 1e-12

    def test_particle_mass_consistent_with_qm(self):
        cfg = SimulationConfig()
        assert abs(cfg.particle_charge / cfg.particle_mass - cfg.qm) < 1e-12

    def test_particle_mass_positive(self):
        assert SimulationConfig().particle_mass > 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"box_length": 0.0},
            {"box_length": -1.0},
            {"n_cells": 1},
            {"particles_per_cell": 0},
            {"dt": 0.0},
            {"n_steps": -1},
            {"vth": -0.1},
            {"interpolation": "spline"},
            {"poisson_solver": "multigrid"},
            {"gradient": "forward"},
            {"loading": "sobol"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("interp", ["ngp", "cic", "tsc"])
    def test_valid_interpolations_accepted(self, interp):
        assert SimulationConfig(interpolation=interp).interpolation == interp

    @pytest.mark.parametrize("solver", ["spectral", "fd", "direct"])
    def test_valid_poisson_solvers_accepted(self, solver):
        assert SimulationConfig(poisson_solver=solver).poisson_solver == solver


class TestUpdates:
    def test_with_updates_changes_field(self):
        cfg = SimulationConfig().with_updates(v0=0.3)
        assert cfg.v0 == 0.3

    def test_with_updates_preserves_others(self):
        cfg = SimulationConfig(seed=42).with_updates(v0=0.3)
        assert cfg.seed == 42

    def test_with_updates_revalidates(self):
        with pytest.raises(ValueError):
            SimulationConfig().with_updates(dt=-1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            SimulationConfig().v0 = 0.9  # type: ignore[misc]


class TestExtraIdentity:
    def test_with_updates_does_not_alias_extra(self):
        cfg = SimulationConfig(extra={"bump_fraction": 0.1})
        derived = cfg.with_updates(v0=0.3)
        derived.extra["bump_fraction"] = 0.9
        assert cfg.extra["bump_fraction"] == 0.1

    def test_with_updates_deep_copies_nested_extra(self):
        cfg = SimulationConfig(extra={"nested": {"a": 1}})
        derived = cfg.with_updates(seed=1)
        derived.extra["nested"]["a"] = 99
        assert cfg.extra["nested"]["a"] == 1

    def test_extra_differences_break_equality(self):
        base = SimulationConfig(scenario="bump_on_tail")
        bumped = base.with_updates(extra={"bump_fraction": 0.2})
        assert base != bumped
        assert base.cache_key() != bumped.cache_key()

    def test_extra_dict_order_is_canonical(self):
        a = SimulationConfig(extra={"a": 1, "b": 2})
        b = SimulationConfig(extra={"b": 2, "a": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a.cache_key() == b.cache_key()

    def test_non_dict_extra_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(extra=[1, 2])  # type: ignore[arg-type]

    def test_non_string_extra_keys_rejected(self):
        # int 1 and str "1" would collapse to one JSON key, letting two
        # unequal configs share a cache key — rejected up front instead.
        with pytest.raises(ValueError, match="strings"):
            SimulationConfig(extra={1: "a"})
        with pytest.raises(ValueError, match="strings"):
            SimulationConfig(extra={"nested": {2: "b"}})
        with pytest.raises(ValueError, match="strings"):
            SimulationConfig(extra={"seq": [{3: "c"}]})


class TestSerialization:
    def test_round_trip_exact(self):
        cfg = SimulationConfig(
            v0=0.3, vth=0.0, n_cells=32, scenario="bump_on_tail",
            extra={"bump_fraction": 0.15, "tags": ["a", "b"]},
        )
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_copies_extra(self):
        cfg = SimulationConfig(extra={"k": 1})
        cfg.to_dict()["extra"]["k"] = 2
        assert cfg.extra["k"] == 1

    def test_from_dict_defaults_missing_fields(self):
        cfg = SimulationConfig.from_dict({"v0": 0.4})
        assert cfg.v0 == 0.4
        assert cfg.n_cells == SimulationConfig().n_cells

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="nsteps"):
            SimulationConfig.from_dict({"nsteps": 10})

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            SimulationConfig.from_dict({"dt": -1.0})

    def test_cache_key_matches_equality_for_mixed_number_types(self):
        # Python equality collapses True == 1 == 1.0; the cache key must too,
        # or the result store would re-execute requests the config layer
        # considers identical.
        a = SimulationConfig(extra={"flag": True, "x": 1.0})
        b = SimulationConfig(extra={"flag": 1, "x": 1})
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_cache_key_stable_and_discriminating(self):
        cfg = SimulationConfig()
        assert cfg.cache_key() == SimulationConfig().cache_key()
        assert cfg.cache_key() != cfg.with_updates(seed=1).cache_key()
        assert cfg.cache_key() != cfg.with_updates(n_steps=7).cache_key()

    def test_cache_keys_of_valid_configs_are_pinned(self):
        # Keys computed before numeric fields were validated strictly:
        # every config that was valid then keeps its store slot.
        assert SimulationConfig().cache_key() == (
            "787c18e23d58648c51576289ed671284c72b4ebc359a9a2d51ce668180c77b88"
        )
        mixed = "914974b60edca5ef6136730fa322f40e9489309905ebef0d6cd47c468d0c37f4"
        assert SimulationConfig(
            dt=1, v0=0, n_cells=32.0, seed=5, extra={"n_v": 64}
        ).cache_key() == mixed
        assert SimulationConfig(
            n_cells=32, seed=5, dt=1.0, v0=0.0, extra={"n_v": 64}
        ).cache_key() == mixed
        assert SimulationConfig(
            solver="vlasov", dtype="float32", vth=0.1,
            perturbation=0.01, perturbation_mode=2,
        ).cache_key() == (
            "d0d67125dac285d8968a7c8b7323665e07693c14a9709d89843b2dda74deaa62"
        )

    def test_cache_key_rejects_unserializable_extra(self):
        cfg = SimulationConfig(extra={"obj": object()})
        with pytest.raises(ValueError, match="JSON"):
            cfg.cache_key()


class TestBackendField:
    @pytest.mark.parametrize("backend", ["threaded", "numba", "", None, 1])
    def test_non_numpy_backend_rejected_naming_the_field(self, backend):
        with pytest.raises(ValueError, match="backend"):
            SimulationConfig.from_dict({"n_cells": 32, "backend": backend})
        with pytest.raises(ValueError, match="backend"):
            SimulationConfig(backend=backend)

    def test_numpy_accepted_with_the_default_key(self):
        explicit = SimulationConfig.from_dict({"seed": 5, "backend": "numpy"})
        default = SimulationConfig(seed=5)
        assert explicit == default
        assert explicit.to_dict()["backend"] == "numpy"
        assert explicit.cache_key() == default.cache_key()


INT_FIELDS = ("n_cells", "particles_per_cell", "n_steps", "perturbation_mode", "seed")
FLOAT_FIELDS = ("box_length", "dt", "v0", "vth", "qm", "perturbation")


class TestNumericFields:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": float("nan")},
            {"dt": float("inf")},
            {"v0": float("-inf")},
            {"vth": float("nan")},
            {"box_length": 10**400},
            {"seed": True},
            {"n_steps": False},
            {"n_cells": 64.5},
            {"seed": float("nan")},
            {"particles_per_cell": "10"},
            {"dt": True},
            {"qm": None},
            {"v0": np.bool_(True)},
        ],
    )
    def test_rejected_with_value_error(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SimulationConfig(**kwargs)

    def test_numpy_integers_and_integral_floats_stored_as_int(self):
        cfg = SimulationConfig(n_cells=np.int64(32), seed=np.int32(5), n_steps=7.0)
        assert (cfg.n_cells, cfg.seed, cfg.n_steps) == (32, 5, 7)
        assert all(type(getattr(cfg, n)) is int for n in INT_FIELDS)
        assert cfg == SimulationConfig(n_cells=32, seed=5, n_steps=7)
        assert cfg.cache_key() == SimulationConfig(n_cells=32, seed=5, n_steps=7).cache_key()

    def test_ints_accepted_in_float_fields(self):
        cfg = SimulationConfig(dt=1, v0=0, box_length=np.float64(2.0))
        assert cfg.dt == 1 and cfg.v0 == 0 and cfg.box_length == 2.0

    _ANY_VALUE = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**6), 10**6),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=4),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from([f.name for f in fields(SimulationConfig)]),
        _ANY_VALUE,
        max_size=5,
    ))
    def test_from_dict_builds_a_valid_config_or_raises_value_error(self, data):
        try:
            cfg = SimulationConfig.from_dict(data)
        except ValueError:
            return
        for name in INT_FIELDS:
            assert type(getattr(cfg, name)) is int, name
        for name in FLOAT_FIELDS:
            value = getattr(cfg, name)
            assert not isinstance(value, bool) and math.isfinite(value), name
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg
        assert len(cfg.cache_key()) == 64


class TestPaperConfigs:
    def test_validation_config_fig4(self):
        cfg = paper_validation_config()
        assert cfg.v0 == constants.PAPER_VALIDATION_V0
        assert cfg.vth == constants.PAPER_VALIDATION_VTH

    def test_coldbeam_config_fig6(self):
        cfg = paper_coldbeam_config()
        assert cfg.v0 == constants.PAPER_COLDBEAM_V0
        assert cfg.vth == 0.0

    def test_overrides_forwarded(self):
        cfg = paper_validation_config(seed=9, n_steps=10)
        assert cfg.seed == 9
        assert cfg.n_steps == 10
