"""Executor layer: where a compatibility group actually runs.

The micro-batcher decides *what* executes together (one structurally
compatible group = one engine call); the executor decides *where*.
:class:`SimulationService` hands each ready group to its executor as a
:class:`GroupTask` — a fully picklable description of the engine call
(configs via the canonical ``to_dict`` serialization, the canonical
observables selection, per-member phase-space flags and the DL model
directory) — and gets back a future resolving to a
:class:`GroupOutcome` of plain arrays.

Two executors ship:

:class:`InlineExecutor`
    Runs the group synchronously on the submitting thread, and the
    default (``workers=1``).  Uses the service's in-memory
    ``DLFieldSolver`` directly.  It is not single-threaded for large
    groups: a ``traditional`` group of at least two rows and
    ``2 * MIN_SHARD_PARTICLES`` particles runs as per-core **row
    shards**, one engine per contiguous row range, the submitting
    thread running the first and a process-wide thread pool the rest
    (see :func:`run_group_task`).  Every row of a batched engine is
    bitwise-identical to its solo run (the solo-vs-batch oracles pin
    this), so a split group yields exactly the whole group's bits
    without any per-step synchronisation.

:class:`ShardedExecutor`
    Dispatches whole groups to ``N`` **spawned** worker processes
    through :class:`concurrent.futures.ProcessPoolExecutor`.  Each
    worker process lazily rebuilds (and caches) its own engine
    infrastructure — including a per-process ``DLFieldSolver``
    rehydrated from ``model_dir`` — so nothing unpicklable ever
    crosses the process boundary.  A worker splits large groups into
    row shards over its even share of the cores (``usable_cores //
    workers``, at least 1).  Results travel back as raw float64 arrays;
    pickling preserves float bits exactly, so a sharded result is
    bitwise identical to an inline one.  A crashed worker
    (``BrokenProcessPool``) or an expired ``group_timeout`` resolves
    the affected group's future with the error — the service turns
    that into error-status results for every requester — while the
    pool replenishes and keeps serving.

Because every worker sees the same content-addressed key space, an
on-disk :class:`~repro.service.store.ResultStore` shared between
services/processes acts as the cross-shard result tier (its writes are
atomic via temp-file + ``os.replace``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor, wait
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.config import SimulationConfig
from repro.engines.base import EngineSpec, make_engine, validate_engine_config
from repro.engines.observables import (
    GroupRecording,
    Observables,
    StepTimer,
    resolve_observables,
)
from repro.obs.trace import new_span_id


@dataclass(frozen=True)
class GroupTask:
    """One compatibility group, described in fully picklable terms.

    ``configs`` holds each member's :meth:`SimulationConfig.to_dict`
    (the canonical round-trip serialization); ``observables`` is the
    group's canonical selection (plain nested tuples); ``phase_space``
    flags which members want their final particle/distribution state
    attached.  ``model_dir`` lets a worker process rehydrate the DL
    solver for ``solver="dl"`` groups.
    """

    configs: "tuple[dict, ...]"
    solver: str
    n_steps: int
    observables: "tuple | None"
    phase_space: "tuple[bool, ...]"
    model_dir: "str | None" = None
    #: When set, the engine call measures per-step timings (via a
    #: :class:`~repro.engines.observables.StepTimer` appended to the
    #: pipeline) and ships worker-side spans back in the outcome.
    traced: bool = False

    def __len__(self) -> int:
        return len(self.configs)


@dataclass
class GroupOutcome:
    """What comes back from an executed group: plain arrays + gauges.

    ``series`` maps observable names to the full batched arrays
    (``time`` is shared, every other series is ``(n_records, batch)``
    -leading); ``efield`` is the final ``(batch, n_cells)`` field.
    ``final_x``/``final_v``/``final_f`` hold one entry per member
    (``None`` unless that member's ``phase_space`` flag was set).
    ``worker_pid`` and ``exec_s`` feed the pool gauges.  ``spans``
    carries worker-side trace spans for traced tasks: wire-format
    dicts whose ``start_s`` is relative to the worker's own execution
    window (the adopting trace re-anchors them into its timeline).
    """

    series: "dict[str, np.ndarray]"
    efield: np.ndarray
    final_x: "tuple[np.ndarray | None, ...]"
    final_v: "tuple[np.ndarray | None, ...]"
    final_f: "tuple[np.ndarray | None, ...]"
    worker_pid: int = field(default_factory=os.getpid)
    exec_s: float = 0.0
    spans: "tuple[dict, ...]" = ()

    @property
    def batch(self) -> int:
        return self.efield.shape[0]


class GroupTimeoutError(TimeoutError):
    """A dispatched group exceeded the executor's ``group_timeout``."""


@runtime_checkable
class Executor(Protocol):
    """Where compatibility groups execute.

    ``submit`` accepts a :class:`GroupTask` and returns a future
    resolving to a :class:`GroupOutcome` (or raising the execution
    error).  ``workers`` reports the parallelism; ``stats`` returns the
    executor's gauge snapshot; ``close`` releases any resources.
    """

    workers: int

    def submit(self, task: GroupTask) -> "Future[GroupOutcome]":
        ...

    def stats(self) -> "dict[str, object]":
        ...

    def close(self) -> None:
        ...


# ----------------------------------------------------------------------
# The actual engine call (shared by both executors; must be a module-
# level function so spawned workers can import it).

# Per-process cache of rehydrated DL solvers, keyed by model directory.
# Loading deserializes the checkpoint npz once; after that every dl
# group served by this process reuses the same solver (and its
# phase-space grid / FFT caches), which is the "each worker lazily
# builds and caches its engines" contract.
_DL_SOLVERS: "dict[str, object]" = {}

# Total engine runs executed in this process (one per batch member).
_RUNS_EXECUTED = 0


def _dl_solver_for(model_dir: "str | None") -> object:
    if model_dir is None:
        raise ValueError(
            "solver='dl' groups need model_dir= on the sharded service: worker "
            "processes rehydrate their own DLFieldSolver from disk (the parent's "
            "in-memory solver does not cross process boundaries)"
        )
    solver = _DL_SOLVERS.get(model_dir)
    if solver is None:
        from repro.dlpic.solver import DLFieldSolver

        solver = DLFieldSolver.load_auto(model_dir)
        _DL_SOLVERS[model_dir] = solver
    return solver


#: Smallest row shard worth its own thread, in particles.  A split
#: traditional group runs ``total_particles // MIN_SHARD_PARTICLES``
#: shards at most, so small groups — the service's typical 800-particle
#: requests — stay whole: below the crossover, the extra engine's fixed
#: per-step cost outweighs the second core.  Measured on a 2-core box
#: (median of 5 interleaved pairs, 100 steps, 64 cells), one group run
#: whole vs as 2 shards:
#:
#: ===================  ==============  ==============
#: particles per shard  batch 2         batch 8
#: ===================  ==============  ==============
#:     6,400            0.86x           0.88x
#:    12,800            1.20x           1.21x
#:    25,600            1.16x           1.19x
#:    51,200            1.70x
#:   102,400            1.93x           2.49x
#: ===================  ==============  ==============
#:
#: The floor sits above the 6,400-particle loss with some margin.
MIN_SHARD_PARTICLES = 16_384

# Cores one group may spread over: ``None`` means every usable core
# (inline execution); a ShardedExecutor worker takes an even share.
_CORE_BUDGET: "int | None" = None

# Process-wide pool running every row shard but the calling thread's.
_SHARD_POOL: "ThreadPoolExecutor | None" = None
_SHARD_POOL_LOCK = threading.Lock()


def usable_cores() -> int:
    """CPU cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shard_cores() -> int:
    """Cores one group may use in this process."""
    return _CORE_BUDGET if _CORE_BUDGET is not None else usable_cores()


def _init_pool_worker(workers: int) -> None:
    """ShardedExecutor worker initializer: take an even share of the cores."""
    global _CORE_BUDGET
    _CORE_BUDGET = max(1, usable_cores() // workers)


def row_shard_count(spec: EngineSpec, configs: "Sequence[SimulationConfig]") -> int:
    """How many row shards a group of ``configs`` runs as (1 = whole)."""
    if not spec.row_shards:
        return 1
    particles = sum(cfg.n_particles for cfg in configs)
    return max(1, min(len(configs), shard_cores(), particles // MIN_SHARD_PARTICLES))


def _shard_pool() -> ThreadPoolExecutor:
    global _SHARD_POOL
    with _SHARD_POOL_LOCK:
        if _SHARD_POOL is None:
            _SHARD_POOL = ThreadPoolExecutor(
                max_workers=max(1, shard_cores() - 1),
                thread_name_prefix="repro-row-shards",
            )
        return _SHARD_POOL


def _run_row_shard(
    configs: "tuple[SimulationConfig, ...]",
    n_steps: int,
    history: Observables,
    dl_solver: "object | None",
) -> "tuple[object, float]":
    """Build and run one shard's engine; returns it and its build end time."""
    sim = make_engine(configs, dl_solver=dl_solver)
    built = time.perf_counter()
    sim.run(n_steps, history=history)
    return sim, built


def run_group_task(task: GroupTask, dl_solver: "object | None" = None) -> GroupOutcome:
    """Execute one group through its registered engine.

    This is the exact engine call the pre-pool service made inline:
    validate, resolve the observables pipeline, build the engine via
    the registry, run, and collect the batched series plus each
    flagged member's final phase-space state.  ``dl_solver`` is the
    in-process solver (inline path); without one, ``solver="dl"``
    tasks rehydrate a per-process solver from ``task.model_dir``.

    A large group of a ``row_shards`` family runs as
    :func:`row_shard_count` contiguous row shards, each on its own
    engine: the calling thread runs the first, the process-wide shard
    pool the rest, and every shard records into its own rows of one
    :class:`~repro.engines.observables.GroupRecording`.  Each row of a
    batched engine is bitwise-identical to its solo run, so the split
    changes no bit of the outcome.
    """
    global _RUNS_EXECUTED
    started = time.perf_counter()
    configs = tuple(SimulationConfig.from_dict(dict(d)) for d in task.configs)
    spec = validate_engine_config(configs[0])
    n_shards = row_shard_count(spec, configs)
    pipelines = [
        resolve_observables(task.observables, spec.kind) for _ in range(n_shards)
    ]
    if task.traced:
        # StepTimer goes LAST so its inter-record interval covers one
        # full engine step including every other observable's cost.
        pipelines[0].append(StepTimer())
    recording = GroupRecording(
        [name for obs in pipelines[0] for name in obs.names],
        n_records=task.n_steps + 1,
        batch=len(configs),
        shared=StepTimer.names if task.traced else (),
    )
    if task.solver == "dl" and dl_solver is None:
        dl_solver = _dl_solver_for(task.model_dir)
    bounds = [
        (k * len(configs) // n_shards, (k + 1) * len(configs) // n_shards)
        for k in range(n_shards)
    ]
    shard_args = [
        (configs[lo:hi], task.n_steps,
         recording.shard(pipeline, slice(lo, hi), owner=k == 0), dl_solver)
        for k, ((lo, hi), pipeline) in enumerate(zip(bounds, pipelines))
    ]
    futures = [_shard_pool().submit(_run_row_shard, *args) for args in shard_args[1:]]
    try:
        first = _run_row_shard(*shard_args[0])
    finally:
        wait(futures)
    shards = [first] + [future.result() for future in futures]
    t_built = first[1]
    t_run_done = time.perf_counter()
    series = recording.as_arrays()
    # Popping the timing series (not slicing around it) keeps every
    # result series object identical to the untraced pipeline's output.
    step_s = series.pop("step_s", None) if task.traced else None
    final_x: "list[np.ndarray | None]" = [None] * len(configs)
    final_v: "list[np.ndarray | None]" = [None] * len(configs)
    final_f: "list[np.ndarray | None]" = [None] * len(configs)
    for (lo, hi), (sim, _) in zip(bounds, shards):
        particles = getattr(sim, "particles", None)
        v_integer = getattr(sim, "v_at_integer_time", None)
        distribution = getattr(sim, "f", None)
        for b in range(lo, hi):
            if not task.phase_space[b]:
                continue
            if particles is not None:
                final_x[b] = particles.x[b - lo].copy()
                final_v[b] = v_integer[b - lo].copy()
            elif distribution is not None:
                final_f[b] = distribution[b - lo].copy()
    _RUNS_EXECUTED += len(configs)
    done = time.perf_counter()
    spans: "tuple[dict, ...]" = ()
    if task.traced:
        spans = _worker_spans(
            started, t_built, t_run_done, done, step_s,
            n_steps=task.n_steps, batch=len(configs),
            dtype=configs[0].dtype, backend=configs[0].backend,
            row_shards=n_shards,
        )
    return GroupOutcome(
        series=series,
        efield=np.concatenate([np.asarray(sim.efield) for sim, _ in shards]),
        final_x=tuple(final_x),
        final_v=tuple(final_v),
        final_f=tuple(final_f),
        exec_s=done - started,
        spans=spans,
    )


def _worker_spans(
    t0: float,
    t_built: float,
    t_run_done: float,
    t_done: float,
    step_s: "np.ndarray | None",
    *,
    n_steps: int,
    batch: int,
    dtype: str = "float64",
    backend: str = "numpy",
    row_shards: int = 1,
) -> "tuple[dict, ...]":
    """Worker-side spans in wire format, ``start_s`` relative to ``t0``.

    The worker's ``perf_counter`` epoch is unrelated to the service's,
    so these ship as offsets inside the worker's own execution window;
    the adopting trace anchors the window just before delivery.
    """
    root_id = new_span_id()
    run_id = new_span_id()
    spans = [
        {
            "span_id": root_id,
            "parent_id": None,
            "name": "executor.worker_run",
            "start_s": 0.0,
            "duration_s": t_done - t0,
            "attributes": {
                "worker_pid": os.getpid(),
                "batch": int(batch),
                "dtype": dtype,
                "backend": backend,
                "row_shards": int(row_shards),
            },
        },
        {
            "span_id": new_span_id(),
            "parent_id": root_id,
            "name": "engine.build",
            "start_s": 0.0,
            "duration_s": t_built - t0,
        },
        {
            "span_id": run_id,
            "parent_id": root_id,
            "name": "engine.run",
            "start_s": t_built - t0,
            "duration_s": t_run_done - t_built,
        },
    ]
    if step_s is not None and step_s.size > 1:
        # Drop the first record: it times construction-to-first-record,
        # not an engine step.
        flat = step_s.ravel()[1:]
        spans.append(
            {
                "span_id": new_span_id(),
                "parent_id": run_id,
                "name": "engine.steps",
                "start_s": t_built - t0,
                "duration_s": float(flat.sum()),
                "attributes": {
                    "n_steps": int(n_steps),
                    "step_p50_s": float(np.percentile(flat, 50)),
                    "step_p99_s": float(np.percentile(flat, 99)),
                    "step_max_s": float(flat.max()),
                },
            }
        )
    return tuple(spans)


def _pool_run_task(task: GroupTask) -> GroupOutcome:
    """Worker-process entry point (top-level for spawn picklability)."""
    return run_group_task(task)


def _pool_ping(hold_s: float = 0.0) -> int:
    """Warm-up probe: imports are paid, the worker pid comes back.

    ``hold_s`` keeps the worker briefly busy so consecutive pings fan
    out across distinct processes instead of landing on the first one.
    """
    if hold_s > 0:
        time.sleep(hold_s)
    return os.getpid()


# ----------------------------------------------------------------------
# Inline (default) executor


class InlineExecutor:
    """Runs each group synchronously on the submitting thread.

    The default executor (``workers=1``): ordering and bits are exactly
    the pre-pool in-thread execution path; large traditional groups
    additionally spread over every usable core as row shards.  The
    returned future is already resolved when ``submit`` returns.
    """

    workers = 1

    def __init__(self, dl_solver: "object | None" = None) -> None:
        self._dl_solver = dl_solver
        self._lock = threading.Lock()
        self._groups = 0
        self._runs = 0
        self._errors = 0
        self._busy = 0

    def submit(self, task: GroupTask) -> "Future[GroupOutcome]":
        future: "Future[GroupOutcome]" = Future()
        with self._lock:
            self._busy += 1
        try:
            outcome = run_group_task(task, dl_solver=self._dl_solver)
        except BaseException as exc:  # noqa: BLE001 — travels via the future
            with self._lock:
                self._errors += 1
                self._busy -= 1
            future.set_exception(exc)
            return future
        with self._lock:
            self._groups += 1
            self._runs += len(task)
            self._busy -= 1
        future.set_result(outcome)
        return future

    def stats(self) -> "dict[str, object]":
        with self._lock:
            return {
                "kind": "inline",
                "workers": 1,
                "busy_workers": min(self._busy, 1),
                "idle_workers": 1 - min(self._busy, 1),
                "groups_in_flight": self._busy,
                "groups_executed": self._groups,
                "runs_executed": self._runs,
                "errors": self._errors,
                "timeouts": 0,
                "pool_restarts": 0,
                "queue_wait_s_total": 0.0,
                "queue_wait_s_max": 0.0,
                "runs_by_worker": {str(os.getpid()): self._runs},
            }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Sharded multi-process executor


class ShardedExecutor:
    """Dispatches whole compatibility groups to spawned worker processes.

    Parameters
    ----------
    workers:
        Pool size (``>= 1``).  Workers are **spawned**, not forked:
        each is a fresh interpreter importing this module, so the
        parent's thread/lock/solver state can never leak in and the
        same code runs identically on every platform.
    model_dir:
        Directory a worker rehydrates its ``DLFieldSolver`` from for
        ``solver="dl"`` groups (each worker loads it once, lazily).
    group_timeout:
        Optional per-group deadline in seconds.  An expired group's
        future raises :class:`GroupTimeoutError`; the stale worker
        result is discarded when it eventually lands.
    """

    def __init__(
        self,
        workers: int,
        model_dir: "str | os.PathLike[str] | None" = None,
        group_timeout: "float | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if group_timeout is not None and group_timeout <= 0:
            raise ValueError(
                f"group_timeout must be positive or None, got {group_timeout}"
            )
        self.workers = workers
        self.model_dir = str(model_dir) if model_dir is not None else None
        self.group_timeout = group_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._pool: "_ProcessPool | None" = None
        self._closed = False
        self._inflight = 0
        self._groups = 0
        self._runs = 0
        self._errors = 0
        self._timeouts = 0
        self._restarts = 0
        self._queue_wait_total = 0.0
        self._queue_wait_max = 0.0
        self._runs_by_worker: "dict[int, int]" = {}

    # -- pool lifecycle ---------------------------------------------------
    def _ensure_pool(self) -> _ProcessPool:
        """Create (or recreate after a crash) the spawn pool, lazily."""
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                self._pool = _ProcessPool(
                    max_workers=self.workers,
                    mp_context=self._ctx,
                    initializer=_init_pool_worker,
                    initargs=(self.workers,),
                )
            return self._pool

    def _retire_pool(self, broken: _ProcessPool) -> None:
        """Replace a broken pool so the next submit gets fresh workers."""
        with self._lock:
            if self._pool is not broken:
                return  # another callback already replenished
            self._pool = None
            if not self._closed:
                self._restarts += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def warm(self, timeout: "float | None" = 30.0) -> "list[int]":
        """Spawn every worker now; returns their pids.

        Spawning pays an interpreter start + import per worker; calling
        this before a latency-sensitive burst (or a benchmark's timed
        section) moves that cost out of the serving path.
        """
        pool = self._ensure_pool()
        hold = 0.05 if self.workers > 1 else 0.0
        futures = [
            pool.submit(_pool_ping, hold) for _ in range(self.workers)
        ]
        return sorted({f.result(timeout=timeout) for f in futures})

    # -- dispatch ---------------------------------------------------------
    def submit(self, task: GroupTask) -> "Future[GroupOutcome]":
        """Dispatch a group to the pool; the future resolves off-thread."""
        outer: "Future[GroupOutcome]" = Future()
        pool: "_ProcessPool | None" = None
        try:
            pool = self._ensure_pool()
            with self._lock:
                self._inflight += 1
            dispatched = time.perf_counter()
            inner = pool.submit(_pool_run_task, task)
        except BaseException as exc:  # noqa: BLE001 — closed/spawn failure
            with self._lock:
                self._errors += 1
                if pool is not None and self._inflight:
                    self._inflight -= 1
            if isinstance(exc, BrokenProcessPool) and pool is not None:
                self._retire_pool(pool)
            outer.set_exception(exc)
            return outer
        timer: "threading.Timer | None" = None
        if self.group_timeout is not None:
            timer = threading.Timer(
                self.group_timeout, self._on_timeout, args=(outer,)
            )
            timer.daemon = True
            timer.start()
        inner.add_done_callback(
            lambda f: self._on_done(outer, f, pool, dispatched, timer)
        )
        return outer

    def _on_timeout(self, outer: "Future[GroupOutcome]") -> None:
        try:
            outer.set_exception(GroupTimeoutError(
                f"group execution exceeded the executor's "
                f"{self.group_timeout:g}s deadline"
            ))
        except InvalidStateError:
            return  # the group finished first
        with self._lock:
            self._timeouts += 1

    def _on_done(
        self,
        outer: "Future[GroupOutcome]",
        inner: "Future[GroupOutcome]",
        pool: _ProcessPool,
        dispatched: float,
        timer: "threading.Timer | None",
    ) -> None:
        if timer is not None:
            timer.cancel()
        done = time.perf_counter()
        exc = inner.exception()
        if isinstance(exc, BrokenProcessPool):
            # A worker died mid-group (OOM-kill, segfault, kill -9).
            # The whole pool is condemned; replace it so the next
            # group gets freshly spawned workers.
            self._retire_pool(pool)
        if exc is not None:
            with self._lock:
                self._errors += 1
                self._inflight -= 1
            self._settle(outer, exception=exc)
            return
        outcome = inner.result()
        # Queue latency: time between dispatch and completion that was
        # NOT spent executing — waiting for a free worker, pickling,
        # and (first group per worker) the spawn + import cost.
        wait = max(0.0, (done - dispatched) - outcome.exec_s)
        with self._lock:
            self._inflight -= 1
            self._groups += 1
            self._runs += outcome.batch
            self._queue_wait_total += wait
            self._queue_wait_max = max(self._queue_wait_max, wait)
            self._runs_by_worker[outcome.worker_pid] = (
                self._runs_by_worker.get(outcome.worker_pid, 0) + outcome.batch
            )
        self._settle(outer, result=outcome)

    @staticmethod
    def _settle(
        outer: "Future[GroupOutcome]",
        result: "GroupOutcome | None" = None,
        exception: "BaseException | None" = None,
    ) -> None:
        try:
            if exception is not None:
                outer.set_exception(exception)
            else:
                outer.set_result(result)
        except InvalidStateError:
            pass  # a timeout settled it first; discard the stale outcome

    # -- introspection ----------------------------------------------------
    def stats(self) -> "dict[str, object]":
        with self._lock:
            busy = min(self._inflight, self.workers)
            return {
                "kind": "sharded",
                "workers": self.workers,
                "busy_workers": busy,
                "idle_workers": self.workers - busy,
                "groups_in_flight": self._inflight,
                "groups_executed": self._groups,
                "runs_executed": self._runs,
                "errors": self._errors,
                "timeouts": self._timeouts,
                "pool_restarts": self._restarts,
                "queue_wait_s_total": self._queue_wait_total,
                "queue_wait_s_max": self._queue_wait_max,
                "runs_by_worker": {
                    str(pid): count
                    for pid, count in sorted(self._runs_by_worker.items())
                },
            }

    def close(self) -> None:
        """Shut the pool down (waits for in-flight groups to finish)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
