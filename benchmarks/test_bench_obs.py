"""Observability — server-side tracing overhead on the closed-loop workload.

One gate from the observability ISSUE: running the PR 6 closed-loop
HTTP workload (mixed-scenario requests over concurrent persistent
connections) against a ``--trace`` server must cost **< 3%** wall-clock
versus the identical server with tracing off.  Tracing threads spans
through every layer (server -> service -> executor worker -> engine
steps), so this bench is the proof that the ``if trace:`` guards and
the per-request span records stay off the critical path.

The gate is the median overhead over ``N_PAIRS`` paired runs, each
pair running the traced and untraced server back to back in
alternating order.  Results (median timings, the median overhead and
its quartiles, and a parity flag) land in
``.artifacts/results/BENCH_obs.json`` — written *before* the gate
assertion, so the artifact records a failing run too.  Runs in the CI
benchmark smoke job (not marked ``slow``): ~80 s on two CPU cores.
"""

import numpy as np
import pytest
from conftest import dump_result, paired_times, ratio_quartiles

from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.server import serve_in_thread

N_REQUESTS = 128
N_CONNECTIONS = 64
MAX_BATCH = 32
MAX_OVERHEAD = 0.03
# Paired traced/untraced trials; the gate is on the median per-pair
# overhead.  A single best-of ratio spread from -17% to +14% between
# runs of the same code, far wider than the 3% it gates.
N_PAIRS = 41

BASE = SimulationConfig(
    n_cells=32, particles_per_cell=10, n_steps=150, vth=0.01, seed=0
)
_SCENARIOS = [
    ("two_stream", {"v0": 0.2}),
    ("cold_beam", {"v0": 0.4}),
    ("landau_damping", {"vth": 0.05}),
    ("bump_on_tail", {"v0": 0.35, "extra": {"bump_fraction": 0.15}}),
    ("random_perturbation", {"vth": 0.03}),
]
REQUESTS = [
    RunRequest(
        config=BASE.with_updates(
            scenario=_SCENARIOS[i % 5][0], seed=i, **_SCENARIOS[i % 5][1]
        ),
        id=f"req-{i}",
    )
    for i in range(N_REQUESTS)
]


def _run_workload(tracing: bool) -> list:
    """The closed-loop workload against a fresh (cold-store) server."""
    with serve_in_thread(
        max_batch_size=MAX_BATCH, max_wait=0.01,
        max_pending=2 * N_REQUESTS, max_connections=2 * N_CONNECTIONS,
        tracing=tracing,
    ) as server:
        with Client.connect(server.url,
                            max_connections=N_CONNECTIONS) as client:
            futures = client.submit_many(REQUESTS)
            return [future.result(timeout=600) for future in futures]


@pytest.fixture(scope="module")
def measurements() -> dict:
    # Parity pass (doubles as warm-up): tracing must not change one bit
    # of any result, and every traced result must carry the stage keys.
    traced = _run_workload(tracing=True)
    plain = _run_workload(tracing=False)
    assert all(r.status == "ok" for r in traced)
    for with_trace, without in zip(traced, plain):
        assert with_trace.id == without.id
        assert with_trace.key == without.key
        assert {"wall_s", "batch_wait_s", "queue_wait_s", "exec_s",
                "store_s"} <= set(with_trace.timings)
        for name, values in without.series.items():
            a = np.asarray(with_trace.series[name])
            b = np.asarray(values)
            assert a.dtype == b.dtype, f"dtype drift in {name!r}"
            np.testing.assert_array_equal(
                a, b, err_msg=f"tracing changed the result in {name!r}"
            )

    times_on, times_off = paired_times(
        lambda: _run_workload(True), lambda: _run_workload(False), N_PAIRS
    )
    t_on, t_off = float(np.median(times_on)), float(np.median(times_off))
    quartiles = ratio_quartiles(times_on, times_off)
    return {
        "n_requests": N_REQUESTS,
        "n_connections": N_CONNECTIONS,
        "max_batch_size": MAX_BATCH,
        "n_steps": BASE.n_steps,
        "n_scenarios": len(_SCENARIOS),
        "n_pairs": N_PAIRS,
        "t_tracing_on_s": t_on,
        "t_tracing_off_s": t_off,
        "requests_per_s_on": N_REQUESTS / t_on,
        "requests_per_s_off": N_REQUESTS / t_off,
        "overhead": quartiles["median"],
        "overhead_quartiles": quartiles,
        "max_overhead": MAX_OVERHEAD,
        "bitwise_parity": True,
    }


def test_tracing_overhead_under_3_percent(measurements, results_dir):
    print()
    print(f"  tracing off: {measurements['t_tracing_off_s'] * 1e3:8.1f} ms median  "
          f"({measurements['requests_per_s_off']:6.1f} req/s)")
    print(f"  tracing on:  {measurements['t_tracing_on_s'] * 1e3:8.1f} ms median  "
          f"({measurements['requests_per_s_on']:6.1f} req/s)")
    q = measurements["overhead_quartiles"]
    print(f"  overhead: {measurements['overhead'] * 100:+6.2f}% median of "
          f"{N_PAIRS} pairs (IQR {q['q1'] * 100:+.2f}% .. {q['q3'] * 100:+.2f}%; "
          f"bar: <{MAX_OVERHEAD * 100:.0f}%)")
    dump_result(results_dir, "BENCH_obs", measurements)
    assert measurements["overhead"] < MAX_OVERHEAD, (
        f"tracing costs {measurements['overhead'] * 100:.2f}% on the "
        f"closed-loop workload; acceptance bar is "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )


def test_tracing_preserves_bitwise_parity(measurements):
    # The parity sweep runs inside the measurements fixture (it doubles
    # as the warm-up pass); this records the gate explicitly.
    assert measurements["bitwise_parity"] is True
