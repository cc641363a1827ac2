"""The micro-batching simulation service.

:class:`SimulationService` turns the batched engines into a
request/response system: callers submit :class:`SimulationConfig`-keyed
run requests and get back futures, while a background worker coalesces
compatible pending requests (same structural key, step count and
solver family — see ``repro.service.batcher``) and executes each group
through ONE engine built by the registry
(:func:`repro.engines.make_engine`): a traditional
:class:`~repro.pic.simulation.EnsembleSimulation`, a
:class:`~repro.dlpic.DLEnsemble` or a noise-free
:class:`~repro.vlasov.ensemble.VlasovEnsemble` — so N independently
arriving requests cost one set of vectorized steps instead of N Python
loops.  Because every batched engine is bitwise identical per row to
its single-run form, each served result is bitwise identical to
running that config alone, whatever the family.

Requests are deduplicated at two levels before they ever reach an
engine:

* **store hits** — the content-addressed :class:`ResultStore` is
  consulted at submit time; a known key returns an already-resolved
  future without queueing anything;
* **in-flight dedup** — a second submit of a key that is currently
  queued or executing returns the *same* future (one engine row serves
  every duplicate requester).

*Where* a ready group executes is delegated to an
:class:`~repro.service.executor.Executor`: the default
:class:`~repro.service.executor.InlineExecutor` runs it on the worker
thread (the exact pre-pool path, bitwise unchanged), while
``workers > 1`` shards groups across spawned processes through a
:class:`~repro.service.executor.ShardedExecutor` — see
``repro.service.executor``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import TYPE_CHECKING

from repro.config import SimulationConfig
from repro.engines.base import validate_engine_config
from repro.engines.observables import canonical_observables, resolve_observables
from repro.obs.trace import NOOP_TRACER, Span, Tracer
from repro.service.batcher import MicroBatcher, PendingRequest
from repro.service.executor import (
    Executor,
    GroupOutcome,
    GroupTask,
    InlineExecutor,
    ShardedExecutor,
)
from repro.service.store import ResultStore, SimulationResult, result_key

if TYPE_CHECKING:
    from repro.dlpic.solver import DLFieldSolver

# Submit outcomes reported by ``submit_with_status``.
STATUS_QUEUED = "queued"
STATUS_CACHED = "cached"
STATUS_INFLIGHT = "inflight"


class StoreHitFuture(Future):
    """The already-resolved future of a store hit.

    Its result is the stored :class:`SimulationResult` itself, the same
    object every hit of that key receives.  This delivery's stage
    timings (``store_s``, ``trace_id``) ride beside it in
    :attr:`timings`, so the shared result is never copied or restamped.
    """

    def __init__(self, result: SimulationResult, timings: "dict[str, object]") -> None:
        super().__init__()
        self.timings = timings
        self.set_result(result)


class SimulationService:
    """Accepts run requests, micro-batches them, returns futures.

    Parameters
    ----------
    max_batch_size:
        Largest ensemble one engine call may advance; a compatibility
        group flushes as soon as it reaches this size.
    max_wait:
        Deadline (seconds) after which a partial group flushes anyway —
        the latency bound a lone request pays for batching.
    store:
        Result store; defaults to a memory-only LRU.  Pass a store with
        a ``directory`` for a persistent on-disk tier.
    dl_solver:
        Optional :class:`~repro.dlpic.DLFieldSolver` backing requests
        with ``solver="dl"``.  Its weight fingerprint becomes part of
        those requests' store keys.
    start:
        Start the background worker thread (default).  With
        ``start=False`` the service is fully synchronous: submissions
        queue up until :meth:`flush` executes them on the caller's
        thread — deterministic, thread-free operation for tests and
        one-shot drains.
    workers:
        Execution parallelism.  ``1`` (default) keeps the inline
        in-thread path, bitwise unchanged; ``N > 1`` shards ready
        compatibility groups across ``N`` spawned worker processes
        (:class:`~repro.service.executor.ShardedExecutor`).
    model_dir:
        Directory sharded workers rehydrate their ``DLFieldSolver``
        from (required for ``solver="dl"`` requests when
        ``workers > 1``; the in-memory ``dl_solver`` object cannot
        cross process boundaries).
    executor:
        An explicit :class:`~repro.service.executor.Executor` to run
        groups on, overriding ``workers`` (the caller keeps ownership
        and closes it).
    group_timeout:
        Per-group execution deadline in seconds for the sharded
        executor (``None`` = no deadline); an expired group resolves
        its requests with a ``GroupTimeoutError``.
    tracing:
        Enable end-to-end request tracing (default off).  When on,
        every request carries a :class:`~repro.obs.trace.Trace` through
        submit → batch → dispatch → worker execution → delivery, and
        completed traces land in ``service.tracer.buffer``.  When off,
        the module-level no-op tracer is used and the per-request cost
        is a handful of ``perf_counter`` calls for the always-on stage
        timings.
    """

    def __init__(
        self,
        max_batch_size: int = 16,
        max_wait: float = 0.02,
        store: "ResultStore | None" = None,
        dl_solver: "DLFieldSolver | None" = None,
        start: bool = True,
        workers: int = 1,
        model_dir: "str | None" = None,
        executor: "Executor | None" = None,
        group_timeout: "float | None" = None,
        tracing: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.tracer = Tracer() if tracing else NOOP_TRACER
        self.store = store if store is not None else ResultStore()
        self._batcher = MicroBatcher(max_batch_size=max_batch_size, max_wait=max_wait)
        self._dl_solver = dl_solver
        self._dl_fingerprint: "str | None" = None
        self._model_dir = str(model_dir) if model_dir is not None else None
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        elif workers > 1:
            self._executor = ShardedExecutor(
                workers, model_dir=self._model_dir, group_timeout=group_timeout
            )
            self._owns_executor = True
        else:
            self._executor = InlineExecutor(dl_solver=dl_solver)
            self._owns_executor = True
        self._dispatched = 0  # groups handed to the executor, unsettled
        self._inflight: "dict[str, Future[SimulationResult]]" = {}
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._stats = {
            "requests": 0,
            "cache_hits": 0,
            "dedup_hits": 0,
            "batches": 0,
            "executed_runs": 0,
            "errors": 0,
            "store_errors": 0,
        }
        self._batch_sizes: "dict[int, int]" = {}
        # Executed runs keyed by "<dtype>/<backend>" — how much work
        # each speed tier actually serves (exposed in /v1/metrics and
        # as a labeled Prometheus counter).
        self._tier_runs: "dict[str, int]" = {}
        self._thread: "threading.Thread | None" = None
        if start:
            self._thread = threading.Thread(
                target=self._worker, name="simulation-service", daemon=True
            )
            self._thread.start()

    # -- public API ------------------------------------------------------
    def submit(
        self,
        config: SimulationConfig,
        solver: "str | None" = None,
        observables: "object | None" = None,
        phase_space: bool = False,
    ) -> "Future[SimulationResult]":
        """Request a run; the future resolves to a :class:`SimulationResult`.

        The engine family comes from ``config.solver``; the ``solver``
        argument is a legacy override kept for callers that routed it
        separately (the config is retagged when they disagree).
        ``observables`` selects which measurements the run records (any
        form :func:`repro.engines.observables.canonical_observables`
        accepts; ``None`` means the default energies + ``mode1`` set)
        and ``phase_space`` attaches the final particle/distribution
        state to the result.
        """
        return self.submit_with_status(config, solver, observables, phase_space)[0]

    def submit_with_status(
        self,
        config: SimulationConfig,
        solver: "str | None" = None,
        observables: "object | None" = None,
        phase_space: bool = False,
        *,
        trace: "object | None" = None,
        parent_id: "str | None" = None,
    ) -> "tuple[Future[SimulationResult], str]":
        """Like :meth:`submit`, also reporting how the request was met.

        Returns ``(future, status)`` with status one of ``"cached"``
        (served from the result store without queueing: a
        :class:`StoreHitFuture` resolved to the stored result object,
        carrying this delivery's timings), ``"inflight"``
        (coalesced onto an identical request already queued or running;
        the same future object is returned) or ``"queued"`` (filed with
        the micro-batcher).

        ``trace``/``parent_id`` attach the request to an active
        :class:`~repro.obs.trace.Trace` (a transport or the server
        passes its own); with ``tracing=True`` and no incoming trace
        the service opens one itself.  The service finishes every trace
        it sees once the request settles — ``Trace.finish`` is
        idempotent, and spans a caller adds afterwards still render.
        """
        t_submit = time.perf_counter()
        if trace is None:
            trace = self.tracer.start_trace("request") if self.tracer.enabled else None
        submit_span = (
            trace.start_span("service.submit", parent_id=parent_id) if trace else None
        )
        try:
            if solver is not None and solver != config.solver:
                config = config.with_updates(solver=solver)
            solver = config.solver
            spec = validate_engine_config(config)  # fail fast on unservable configs
            selection = canonical_observables(observables)
            # Building the pipeline validates the selection against this
            # family (unknown names/params, family-incompatible observables
            # all fail the submit, not the engine).
            resolve_observables(selection, spec.kind)
            key = self._result_key(config, solver, selection, phase_space)
            # The store is thread-safe and possibly disk-backed: consult it
            # outside the service lock so a multi-ms archive read never
            # stalls other submitters or the worker.
            t_store = time.perf_counter()
            cached = self.store.get(key)
            store_s = time.perf_counter() - t_store
            if submit_span:
                Span(
                    "service.store_lookup",
                    trace=trace,
                    parent_id=submit_span.span_id,
                    start=t_store,
                ).set_attribute("hit", cached is not None).finish(
                    end=t_store + store_s
                )
            with self._wake:
                if self._closed:
                    raise RuntimeError(
                        "SimulationService is closed (close() was called, or the "
                        "service was used as an exited context manager); create a "
                        "new service to submit further requests"
                    )
                self._stats["requests"] += 1
                if cached is not None:
                    self._stats["cache_hits"] += 1
                    timings: "dict[str, object]" = {"store_s": store_s}
                    if trace:
                        timings["trace_id"] = trace.trace_id
                    future: "Future[SimulationResult]" = StoreHitFuture(cached, timings)
                    if submit_span:
                        submit_span.set_attribute("status", STATUS_CACHED)
                    return future, STATUS_CACHED
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self._stats["dedup_hits"] += 1
                    if submit_span:
                        submit_span.set_attribute("status", STATUS_INFLIGHT)
                    return inflight, STATUS_INFLIGHT
                future = Future()
                # File with the batcher before taking the in-flight slot:
                # if grouping raises, no requester is left holding a future
                # that nothing will ever resolve.
                self._batcher.add(
                    PendingRequest(
                        key=key, config=config, solver=solver, future=future,
                        observables=selection, phase_space=phase_space,
                        trace=trace, parent_id=parent_id,
                        store_s=store_s, t_submit=t_submit,
                    )
                )
                self._inflight[key] = future
                self._wake.notify()
                if submit_span:
                    submit_span.set_attribute("status", STATUS_QUEUED)
                return future, STATUS_QUEUED
        except BaseException as exc:
            if submit_span:
                submit_span.set_attribute("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if submit_span:
                submit_span.finish()
                # Settled-now paths (cached, inflight, rejected) end the
                # trace here; queued requests finish at delivery.
                status = submit_span.attributes.get("status")
                if status != STATUS_QUEUED:
                    trace.finish()

    def flush(self) -> None:
        """Execute every pending group now; returns once all resolved.

        Groups are popped under the lock and run without it, so a
        concurrent worker can keep serving other groups; with
        ``start=False`` this is the only way requests execute.  With a
        sharded executor the dispatched groups run in worker processes;
        flush waits until every one of them has settled its futures.
        """
        with self._wake:
            groups = self._batcher.drain()
        for group in groups:
            self._execute(group)
        self._wait_dispatched()

    def _wait_dispatched(self) -> None:
        """Block until every dispatched group has settled (pool drain)."""
        with self._wake:
            while self._dispatched:
                self._wake.wait()

    @property
    def stats(self) -> "dict[str, object]":
        """Counters snapshot (requests, hits, batches, executed runs...)
        plus ``runs_by_tier`` ("<dtype>/<backend>" -> executed runs)."""
        with self._lock:
            out = dict(self._stats)
            out["pending"] = len(self._batcher)
            out["dispatched"] = self._dispatched
            out["workers"] = self._executor.workers
            out["store_hits"] = self.store.hits
            out["store_disk_hits"] = self.store.disk_hits
            out["store_misses"] = self.store.misses
            out["runs_by_tier"] = dict(self._tier_runs)
        return out

    @property
    def executor(self) -> Executor:
        """The executor running this service's groups (e.g. for ``warm()``)."""
        return self._executor

    @property
    def executor_stats(self) -> "dict[str, object]":
        """The executor's gauge snapshot (pool busy/idle, per-shard runs)."""
        return self._executor.stats()

    @property
    def batch_size_histogram(self) -> "dict[int, int]":
        """Executed engine-batch sizes -> occurrence counts."""
        with self._lock:
            return dict(self._batch_sizes)

    def close(self) -> None:
        """Drain pending work, resolve all futures, stop the worker.

        Already-queued groups are executed, not abandoned: the worker
        (or a final :meth:`flush` in synchronous mode) drains the
        batcher, then close waits for every dispatched group to settle
        before shutting the executor down — no submitted future is
        left forever pending.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        else:
            self.flush()
        self._wait_dispatched()
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------
    def _require_dl_fingerprint(self) -> str:
        """The serving DL model's fingerprint (loads from model_dir lazily).

        A service constructed with only ``model_dir=`` (the sharded
        form — workers rehydrate their own solver) still needs the
        model identity for result keys and delivered results, so the
        checkpoint is loaded here once, on the first DL submit.
        ``model_dir`` may be a plain directory or a ``registry:``
        reference (resolved by :meth:`DLFieldSolver.load_auto`).
        """
        if self._dl_fingerprint is None:
            if self._dl_solver is None:
                if self._model_dir is None:
                    raise ValueError(
                        "this service has no DL solver; construct it with "
                        "dl_solver=... or model_dir=..."
                    )
                from repro.dlpic.solver import DLFieldSolver

                self._dl_solver = DLFieldSolver.load_auto(self._model_dir)
                # The inline executor runs on this process: hand it the
                # freshly loaded solver so it is not loaded twice.
                if (
                    isinstance(self._executor, InlineExecutor)
                    and self._executor._dl_solver is None
                ):
                    self._executor._dl_solver = self._dl_solver
            self._dl_fingerprint = self._dl_solver.fingerprint()
        return self._dl_fingerprint

    def _result_key(
        self,
        config: SimulationConfig,
        solver: str,
        observables: "tuple | None" = None,
        phase_space: bool = False,
    ) -> str:
        fingerprint = None
        if solver == "dl":
            fingerprint = self._require_dl_fingerprint()
        return result_key(
            config, solver, solver_fingerprint=fingerprint,
            observables=observables, phase_space=phase_space,
        )

    def _worker(self) -> None:
        while True:
            with self._wake:
                groups = self._batcher.take_ready()
                while not groups and not self._closed:
                    deadline = self._batcher.next_deadline()
                    timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
                    self._wake.wait(timeout)
                    groups = self._batcher.take_ready()
                if self._closed and not groups:
                    groups = self._batcher.drain()
                    if not groups:
                        return
            for group in groups:
                self._execute(group)

    def _execute(self, group: "list[PendingRequest]") -> None:
        """Hand one compatibility group to the executor.

        Never raises: engine failures travel to every requester via
        their futures — the worker thread must survive anything a
        group throws at it.  With the inline executor the group runs
        (and its futures settle) before this method returns, exactly
        the pre-pool behavior; a sharded executor returns immediately
        and :meth:`_finish_group` fires from the pool's callback
        thread when the worker process delivers.
        """
        task = GroupTask(
            configs=tuple(request.config.to_dict() for request in group),
            solver=group[0].solver,
            n_steps=group[0].config.n_steps,
            observables=group[0].observables,
            phase_space=tuple(request.phase_space for request in group),
            model_dir=self._model_dir,
            traced=any(request.trace for request in group),
        )
        with self._wake:
            self._dispatched += 1
        t_dispatch = time.perf_counter()
        try:
            future = self._executor.submit(task)
        except BaseException as exc:  # noqa: BLE001 — e.g. closed executor
            self._fail_group(group, exc)
            self._settle_dispatch()
            return
        future.add_done_callback(
            lambda f: self._finish_group(group, f, t_dispatch)
        )

    def _finish_group(
        self,
        group: "list[PendingRequest]",
        future: "Future[GroupOutcome]",
        t_dispatch: float,
    ) -> None:
        """Turn one settled group outcome into per-request results."""
        try:
            exc = future.exception()
            if exc is not None:
                self._fail_group(group, exc)
                return
            outcome = future.result()
            with self._lock:
                self._stats["batches"] += 1
                size = len(group)
                self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
            try:
                self._deliver(group, outcome, t_dispatch)
            except Exception as deliver_exc:  # noqa: BLE001 — e.g. MemoryError
                self._fail_group(group, deliver_exc)
        finally:
            self._settle_dispatch()

    def _deliver(
        self,
        group: "list[PendingRequest]",
        outcome: GroupOutcome,
        t_dispatch: float,
    ) -> None:
        """Build, store and resolve one result per batched request.

        Also stamps the canonical stage breakdown on every result and,
        for traced requests, records the dispatch-side spans and adopts
        the worker-side ones.  The worker's spans are relative to its
        own execution window; anchoring that window at
        ``t_done - outcome.exec_s`` places it as late as possible, so
        pickling/IPC cost shows up as executor queue time.
        """
        series = outcome.series
        t_done = time.perf_counter()
        anchor = t_done - outcome.exec_s
        queue_wait_s = max(0.0, (t_done - t_dispatch) - outcome.exec_s)
        for b, request in enumerate(group):
            timings: "dict[str, object]" = {
                "batch_wait_s": max(0.0, t_dispatch - request.t_submit),
                "queue_wait_s": queue_wait_s,
                "exec_s": outcome.exec_s,
            }
            if request.trace:
                timings["trace_id"] = request.trace.trace_id
            result = SimulationResult(
                key=request.key,
                config=request.config,
                solver=request.solver,
                series={
                    name: (values.copy() if name == "time" else values[:, b].copy())
                    for name, values in series.items()
                },
                efield=outcome.efield[b].copy(),
                final_x=outcome.final_x[b],
                final_v=outcome.final_v[b],
                final_f=outcome.final_f[b],
                # DL results carry the serving model's identity; the
                # fingerprint was resolved at submit time (it is part of
                # the result key), so this is a cached read.
                model_fingerprint=(
                    self._dl_fingerprint if request.solver == "dl" else None
                ),
                timings=timings,
            )
            t_put = time.perf_counter()
            try:
                # Thread-safe store; keep the (possibly compressed-npz)
                # write out of the service lock.  Stored before the
                # in-flight slot is released, so a concurrent submit of
                # this key always finds one or the other.
                self.store.put(result)
            except Exception:  # noqa: BLE001 — the store is a cache, the run serves
                with self._lock:
                    self._stats["store_errors"] += 1
            # Store cost = submit-time lookup + delivery-time write.
            # The memory tier shares this dict, so stamping after put
            # updates the cached copy too.
            timings["store_s"] = request.store_s + (time.perf_counter() - t_put)
            with self._lock:
                self._inflight.pop(request.key, None)
                self._stats["executed_runs"] += 1
                tier = f"{request.config.dtype}/{request.config.backend}"
                self._tier_runs[tier] = self._tier_runs.get(tier, 0) + 1
            if request.trace:
                self._record_delivery_spans(
                    request, outcome, t_dispatch, anchor, t_done, t_put
                )
            self._resolve(request.future, result=result)

    def _record_delivery_spans(
        self,
        request: PendingRequest,
        outcome: GroupOutcome,
        t_dispatch: float,
        anchor: float,
        t_done: float,
        t_put: float,
    ) -> None:
        """Attach dispatch-stage + adopted worker spans to one trace."""
        trace = request.trace
        parent = request.parent_id
        Span(
            "service.batch_wait", trace=trace, parent_id=parent,
            start=request.t_submit,
        ).finish(end=t_dispatch)
        dispatch = Span(
            "executor.dispatch", trace=trace, parent_id=parent, start=t_dispatch
        )
        dispatch.set_attribute("batch", outcome.batch)
        dispatch.set_attribute("worker_pid", outcome.worker_pid)
        Span(
            "executor.queue", trace=trace, parent_id=dispatch.span_id,
            start=t_dispatch,
        ).finish(end=anchor)
        if outcome.spans:
            trace.adopt(outcome.spans, anchor=anchor, parent_id=dispatch.span_id)
        dispatch.finish(end=t_done)
        Span(
            "service.store_put", trace=trace, parent_id=parent, start=t_put
        ).finish()
        trace.finish()

    def _fail_group(
        self, group: "list[PendingRequest]", exc: BaseException
    ) -> None:
        """Resolve every request of a failed group with the error."""
        with self._lock:
            self._stats["errors"] += 1
            for request in group:
                self._inflight.pop(request.key, None)
        for request in group:
            if request.trace:
                request.trace.start_span(
                    "service.error", parent_id=request.parent_id
                ).set_attribute("error", f"{type(exc).__name__}: {exc}").finish()
                request.trace.finish()
            # Already-resolved futures reject the exception harmlessly.
            self._resolve(request.future, exception=exc)

    def _settle_dispatch(self) -> None:
        with self._wake:
            self._dispatched -= 1
            self._wake.notify_all()

    @staticmethod
    def _resolve(
        future: "Future[SimulationResult]",
        result: "SimulationResult | None" = None,
        exception: "BaseException | None" = None,
    ) -> None:
        """Settle a future, tolerating callers that cancelled it."""
        try:
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(result)
        except InvalidStateError:
            pass
