"""The executor layer: inline default, sharded pool, fault paths."""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import sys
import time

import numpy as np
import pytest

import repro.service.executor as executor_module
from repro.config import SimulationConfig
from repro.engines.base import make_engine
from repro.engines.observables import Observables, resolve_observables
from repro.service import (
    GroupTask,
    GroupTimeoutError,
    InlineExecutor,
    ResultStore,
    ShardedExecutor,
    SimulationService,
)
from repro.service.executor import run_group_task, usable_cores


def _task(*configs: SimulationConfig, phase_space: bool = False) -> GroupTask:
    return GroupTask(
        configs=tuple(cfg.to_dict() for cfg in configs),
        solver=configs[0].solver,
        n_steps=configs[0].n_steps,
        observables=None,
        phase_space=tuple(phase_space for _ in configs),
    )


def _run_with(monkeypatch, task, cores, floor=1, **kwargs):
    """Run ``task`` with a pinned core budget and particle floor.

    Returns the outcome and the row count of every engine built for it,
    in row order (shard threads build their engines in any order).
    """
    rows = [SimulationConfig.from_dict(cfg) for cfg in task.configs]
    built = []

    def counting_make_engine(configs, **kw):
        built.append((rows.index(configs[0]), len(configs)))
        return make_engine(configs, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(executor_module, "_CORE_BUDGET", cores)
        patch.setattr(executor_module, "MIN_SHARD_PARTICLES", floor)
        patch.setattr(executor_module, "make_engine", counting_make_engine)
        outcome = run_group_task(task, **kwargs)
    return outcome, [size for _, size in sorted(built)]


def _assert_outcomes_bitwise_equal(a, b) -> None:
    assert list(a.series) == list(b.series)
    for name in a.series:
        assert a.series[name].dtype == b.series[name].dtype, name
        assert np.array_equal(a.series[name], b.series[name]), name
    assert np.array_equal(a.efield, b.efield)
    for attr in ("final_x", "final_v", "final_f"):
        for va, vb in zip(getattr(a, attr), getattr(b, attr)):
            assert (va is None) == (vb is None)
            if va is not None:
                assert np.array_equal(va, vb)


def _slow_config() -> SimulationConfig:
    """A run long enough (~seconds) to be interrupted mid-group."""
    return SimulationConfig(
        n_cells=64, particles_per_cell=100, n_steps=4000, v0=0.2, vth=0.01, seed=3
    )


def _assert_results_bitwise_equal(a, b) -> None:
    assert a.key == b.key
    assert set(a.series) == set(b.series)
    for name in a.series:
        assert np.array_equal(a.series[name], b.series[name]), name
    assert np.array_equal(a.efield, b.efield)
    for attr in ("final_x", "final_v", "final_f"):
        va, vb = getattr(a, attr), getattr(b, attr)
        assert (va is None) == (vb is None)
        if va is not None:
            assert np.array_equal(va, vb)


class TestInlineExecutor:
    def test_default_service_uses_inline_executor(self, tiny_config):
        with SimulationService(start=False) as service:
            assert isinstance(service.executor, InlineExecutor)
            assert service.stats["workers"] == 1

    def test_run_group_task_matches_engine_run(self, tiny_config):
        outcome = run_group_task(_task(tiny_config, phase_space=True))
        sim = make_engine([tiny_config])
        history = sim.run(tiny_config.n_steps)
        reference = history.as_arrays()
        for name, values in reference.items():
            got = outcome.series[name] if name == "time" else outcome.series[name][:, 0]
            want = values if name == "time" else values[:, 0]
            assert np.array_equal(got, want), name
        assert np.array_equal(outcome.efield, sim.efield)
        assert np.array_equal(outcome.final_x[0], sim.particles.x[0])
        assert np.array_equal(outcome.final_v[0], sim.v_at_integer_time[0])
        assert outcome.final_f[0] is None
        assert outcome.worker_pid == os.getpid()

    def test_group_task_pickles(self, tiny_config):
        task = _task(tiny_config, tiny_config.with_updates(seed=9))
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        outcome = run_group_task(clone)
        assert outcome.batch == 2

    def test_inline_stats_count_groups_and_runs(self, tiny_config):
        executor = InlineExecutor()
        executor.submit(_task(tiny_config, tiny_config.with_updates(seed=8)))
        stats = executor.stats()
        assert stats["kind"] == "inline"
        assert stats["groups_executed"] == 1
        assert stats["runs_executed"] == 2
        assert stats["errors"] == 0

    def test_inline_submit_reports_errors_via_future(self, tiny_config):
        executor = InlineExecutor()
        bad = _task(tiny_config.with_updates(solver="dl"))
        future = executor.submit(bad)
        with pytest.raises(ValueError, match="model_dir"):
            future.result()
        assert executor.stats()["errors"] == 1


class TestRowShards:
    """A split traditional group is bitwise the whole group."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [2, 3, 5, 8])
    @pytest.mark.parametrize(
        "observables",
        [
            None,
            (("fields", ()), ("training_pairs", (("n_v", 16), ("n_x", 32)))),
        ],
        ids=["default", "training_pairs+fields"],
    )
    def test_split_group_bitwise_equals_whole(
        self, monkeypatch, tiny_config, dtype, batch, observables
    ):
        configs = [
            tiny_config.with_updates(dtype=dtype, seed=40 + b) for b in range(batch)
        ]
        task = GroupTask(
            configs=tuple(cfg.to_dict() for cfg in configs),
            solver="traditional",
            n_steps=tiny_config.n_steps,
            observables=observables,
            phase_space=tuple(b % 2 == 1 for b in range(batch)),
        )
        whole, whole_built = _run_with(monkeypatch, task, cores=1)
        split, split_built = _run_with(monkeypatch, task, cores=3)
        assert whole_built == [batch]
        # Uneven splits: batch 5 runs as 1 + 2 + 2 rows, batch 8 as 2 + 3 + 3.
        shards = min(batch, 3)
        assert split_built == [
            (k + 1) * batch // shards - k * batch // shards for k in range(shards)
        ]
        _assert_outcomes_bitwise_equal(whole, split)
        assert split.efield.shape == (batch, tiny_config.n_cells)
        # ... and the whole group is the plain batched engine run.
        reference = make_engine(configs).run(
            tiny_config.n_steps,
            history=Observables(resolve_observables(observables)),
        ).as_arrays()
        assert list(reference) == list(split.series)
        for name, values in reference.items():
            assert np.array_equal(split.series[name], values), name

    def test_many_shards_under_fast_thread_switching(self, monkeypatch, tiny_config):
        # More shard threads than cores, switching every microsecond: a
        # lost race in the shared buffer allocation would drop rows.
        configs = [tiny_config.with_updates(seed=80 + b) for b in range(8)]
        task = _task(*configs, phase_space=True)
        whole, _ = _run_with(monkeypatch, task, cores=1)
        monkeypatch.setattr(executor_module, "_SHARD_POOL", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                split, built = _run_with(monkeypatch, task, cores=8)
                assert built == [1] * 8
                _assert_outcomes_bitwise_equal(whole, split)
        finally:
            sys.setswitchinterval(interval)
            executor_module._SHARD_POOL.shutdown(wait=True)

    def test_traced_task_splits_and_matches(self, monkeypatch, tiny_config):
        configs = [tiny_config.with_updates(seed=60 + b) for b in range(4)]
        plain = _task(*configs, phase_space=True)
        traced = dataclasses.replace(plain, traced=True)
        whole, _ = _run_with(monkeypatch, plain, cores=1)
        split, built = _run_with(monkeypatch, traced, cores=2)
        assert built == [2, 2]  # tracing does not change the execution mode
        _assert_outcomes_bitwise_equal(whole, split)
        [root] = [s for s in split.spans if s["name"] == "executor.worker_run"]
        assert root["attributes"]["row_shards"] == 2
        [steps] = [s for s in split.spans if s["name"] == "engine.steps"]
        assert steps["attributes"]["n_steps"] == tiny_config.n_steps
        assert steps["duration_s"] > 0

    def test_small_groups_build_one_engine(self, monkeypatch, tiny_config):
        configs = [tiny_config.with_updates(seed=b) for b in range(8)]
        assert sum(c.n_particles for c in configs) < (
            2 * executor_module.MIN_SHARD_PARTICLES
        )
        _, built = _run_with(
            monkeypatch, _task(*configs), cores=8,
            floor=executor_module.MIN_SHARD_PARTICLES,
        )
        assert built == [8]

    def test_dl_and_mpi_groups_stay_whole(
        self, monkeypatch, tiny_trained_solver, tiny_solver_config
    ):
        dl = [tiny_solver_config.with_updates(solver="dl", n_steps=4, seed=b)
              for b in range(4)]
        _, built = _run_with(
            monkeypatch, _task(*dl), cores=8, dl_solver=tiny_trained_solver
        )
        assert built == [4]
        mpi = [tiny_solver_config.with_updates(
            solver="mpi", n_steps=4, seed=b, extra={"n_ranks": 2})
            for b in range(3)]
        _, built = _run_with(monkeypatch, _task(*mpi), cores=8)
        assert built == [3]

    def test_a_shard_error_propagates(self, monkeypatch, tiny_config):
        configs = [tiny_config.with_updates(seed=b) for b in range(2)]
        task = dataclasses.replace(_task(*configs), n_steps=-1)
        with pytest.raises(ValueError, match="non-negative"):
            _run_with(monkeypatch, task, cores=2)

    def test_sharded_worker_takes_an_even_share_of_the_cores(self):
        with ShardedExecutor(2) as executor:
            executor.warm()
            pool = executor._ensure_pool()
            budgets = {
                pool.submit(executor_module.shard_cores).result(timeout=60)
                for _ in range(4)
            }
        assert budgets == {max(1, usable_cores() // 2)}
        assert executor_module.shard_cores() == usable_cores()


class TestShardedExecutor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedExecutor(0)
        with pytest.raises(ValueError, match="group_timeout"):
            ShardedExecutor(1, group_timeout=0.0)

    def test_sharded_service_bitwise_equals_inline_and_close_drains(
        self, tiny_config
    ):
        mixed = [
            tiny_config,
            tiny_config.with_updates(seed=21, scenario="landau_damping"),
            tiny_config.with_updates(
                solver="mpi", seed=5, extra={"n_ranks": 2}
            ),
        ]
        with SimulationService(start=False) as inline_service:
            inline_futures = [
                inline_service.submit(cfg, phase_space=True) for cfg in mixed
            ]
            inline_service.flush()
            inline_results = [f.result() for f in inline_futures]

        service = SimulationService(max_wait=0.005, workers=2)
        try:
            assert isinstance(service.executor, ShardedExecutor)
            pids = service.executor.warm()
            assert pids and all(pid != os.getpid() for pid in pids)
            futures = [service.submit(cfg, phase_space=True) for cfg in mixed]
            results = [f.result(timeout=120) for f in futures]
        finally:
            service.close()
        for inline_result, sharded_result in zip(inline_results, results):
            _assert_results_bitwise_equal(inline_result, sharded_result)
        pool = service.executor_stats
        assert pool["kind"] == "sharded"
        assert pool["runs_executed"] == len(mixed)
        assert pool["groups_in_flight"] == 0
        assert sum(pool["runs_by_worker"].values()) == len(mixed)
        # Submitting after close names the service state.
        with pytest.raises(RuntimeError, match="SimulationService is closed"):
            service.submit(tiny_config)

    def test_close_resolves_queued_groups(self, tiny_config):
        service = SimulationService(max_wait=30.0, workers=2)
        futures = [
            service.submit(tiny_config.with_updates(seed=100 + i))
            for i in range(3)
        ]
        # max_wait is huge: nothing has flushed yet when close() runs,
        # so close must drain the queued group, not abandon it.
        service.close()
        for future in futures:
            assert future.result(timeout=1).n_steps == tiny_config.n_steps

    def test_worker_killed_mid_group_errors_and_pool_recovers(self, tiny_config):
        executor = ShardedExecutor(1)
        try:
            [pid] = executor.warm()
            doomed = executor.submit(_task(_slow_config()))
            time.sleep(0.3)  # let the worker pick the group up
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(Exception) as excinfo:
                doomed.result(timeout=120)
            assert "process" in str(excinfo.value).lower()
            # The pool replenishes: the next group is served by a
            # freshly spawned worker.
            outcome = executor.submit(_task(tiny_config)).result(timeout=120)
            assert outcome.worker_pid != pid
            stats = executor.stats()
            assert stats["pool_restarts"] >= 1
            assert stats["errors"] >= 1
            assert stats["groups_executed"] == 1
        finally:
            executor.close()

    def test_worker_crash_resolves_service_requests_as_errors(self, tiny_config):
        # workers=1 means inline by design, so hand the service a
        # one-worker pool explicitly to exercise the crash path.
        service = SimulationService(
            max_wait=0.005, executor=ShardedExecutor(1)
        )
        try:
            [pid] = service.executor.warm()
            doomed = service.submit(_slow_config())
            time.sleep(0.3)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(Exception):
                doomed.result(timeout=120)
            assert service.stats["errors"] == 1
            # The service keeps serving on the replenished pool.
            result = service.submit(tiny_config).result(timeout=120)
            assert result.n_steps == tiny_config.n_steps
        finally:
            executor = service.executor
            service.close()
            executor.close()  # service does not own an injected executor

    def test_group_timeout_resolves_future(self):
        executor = ShardedExecutor(1, group_timeout=0.3)
        try:
            executor.warm()  # spawn cost must not count against the deadline
            future = executor.submit(_task(_slow_config()))
            with pytest.raises(GroupTimeoutError, match="deadline"):
                future.result(timeout=120)
            assert executor.stats()["timeouts"] == 1
        finally:
            executor.close()

    def test_sharded_dl_rehydrates_solver_from_model_dir(
        self, tiny_trained_solver, tiny_solver_config, tmp_path
    ):
        from repro.dlpic.solver import DLFieldSolver

        model_dir = tiny_trained_solver.save(tmp_path / "model")
        loaded = DLFieldSolver.load_auto(model_dir)
        config = tiny_solver_config.with_updates(solver="dl", n_steps=8)
        with SimulationService(start=False, dl_solver=loaded) as inline_service:
            future = inline_service.submit(config)
            inline_service.flush()
            inline_result = future.result()
        service = SimulationService(
            max_wait=0.005, workers=2,
            dl_solver=loaded, model_dir=str(model_dir),
        )
        try:
            sharded_result = service.submit(config).result(timeout=120)
        finally:
            service.close()
        _assert_results_bitwise_equal(inline_result, sharded_result)

    def test_sharded_dl_without_model_dir_is_a_clear_error(
        self, tiny_trained_solver, tiny_solver_config
    ):
        config = tiny_solver_config.with_updates(solver="dl", n_steps=4)
        executor = ShardedExecutor(1)  # no model_dir for the workers
        service = SimulationService(
            max_wait=0.005, dl_solver=tiny_trained_solver, executor=executor
        )
        try:
            future = service.submit(config)
            with pytest.raises(ValueError, match="model_dir"):
                future.result(timeout=120)
        finally:
            service.close()
            executor.close()


class TestSharedStoreAcrossServices:
    def test_two_services_on_one_store_directory_dedup(
        self, tiny_config, tmp_path
    ):
        store_dir = tmp_path / "store"
        with SimulationService(
            start=False, store=ResultStore(directory=store_dir)
        ) as producer:
            future = producer.submit(tiny_config)
            producer.flush()
            produced = future.result()
            assert producer.stats["executed_runs"] == 1
        # A different service (fresh memory tier, like another process)
        # pointed at the same directory serves the repeat from disk.
        with SimulationService(
            start=False, store=ResultStore(capacity=0, directory=store_dir)
        ) as consumer:
            future, status = consumer.submit_with_status(tiny_config)
            assert status == "cached"
            cached = future.result()
            assert consumer.stats["executed_runs"] == 0
            assert cached.from_cache
        for name in produced.series:
            assert np.array_equal(produced.series[name], cached.series[name])
        assert np.array_equal(produced.efield, cached.efield)

    def test_sharded_workers_share_the_disk_store(self, tiny_config, tmp_path):
        store_dir = tmp_path / "store"
        service = SimulationService(
            max_wait=0.005, workers=2,
            store=ResultStore(directory=store_dir),
        )
        try:
            first = service.submit(tiny_config).result(timeout=120)
            assert (store_dir / f"{first.key}.npz").exists()
        finally:
            service.close()
        # Another sharded service on the same directory never executes.
        other = SimulationService(
            max_wait=0.005, workers=2,
            store=ResultStore(capacity=0, directory=store_dir),
        )
        try:
            future, status = other.submit_with_status(tiny_config)
            assert status == "cached"
            assert future.result(timeout=10).from_cache
            assert other.stats["executed_runs"] == 0
        finally:
            other.close()
