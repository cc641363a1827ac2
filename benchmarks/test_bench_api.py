"""Public API v1 — Client overhead + float32-tier throughput gates.

Two gates from the API-redesign ISSUE:

* the :class:`~repro.api.Client` façade must add **less than 5%**
  wall-clock overhead over driving the
  :class:`~repro.service.SimulationService` directly for the same
  mixed-scenario request stream (the envelope is bookkeeping, not a
  second service layer) — and the float64 results it returns must be
  bitwise identical to the direct service results;
* the ``dtype: float32`` tier must serve a 16-request batch at
  **>= 1.5x** the float64 throughput for the same workload (the tier
  exists to halve serving cost where the bitwise guarantee is waived).

The client gate is the median overhead over ``OVERHEAD_PAIRS`` paired
runs (direct and client back to back, alternating order); its quartiles
are recorded too.  The numeric outcome lands in
``.artifacts/results/BENCH_api.json`` and
is uploaded as a CI artifact.  Runs in the CI benchmark smoke job (not
marked ``slow``): a full timing pass takes ~35 s on two CPU cores.
"""

import time

import numpy as np
import pytest
from conftest import dump_result, paired_times, ratio_quartiles

from repro.api import Client, RunRequest
from repro.config import SimulationConfig
from repro.service import ResultStore, SimulationService

# -- Gate 1 workload: a mixed-scenario stream of small requests --------
OVERHEAD_SCENARIOS = ["two_stream", "landau_damping", "bump_on_tail", "cold_beam"]
OVERHEAD_CONFIGS = [
    SimulationConfig(
        n_cells=32, particles_per_cell=60, n_steps=30,
        vth=0.0 if OVERHEAD_SCENARIOS[i % 4] == "cold_beam" else 0.02 + 0.005 * (i % 3),
        scenario=OVERHEAD_SCENARIOS[i % 4], seed=i,
    )
    for i in range(32)
]

# -- Gate 2 workload: batch 16, float64 vs float32 tier ----------------
TIER_BATCH = 16
TIER_CONFIGS = [
    SimulationConfig(
        n_cells=64, particles_per_cell=400, n_steps=40,
        scenario="two_stream", vth=0.025, seed=s,
    )
    for s in range(TIER_BATCH)
]

MAX_CLIENT_OVERHEAD = 0.05
MIN_FLOAT32_SPEEDUP = 1.5
# Paired direct/client trials; the client gate is on the median
# per-pair overhead.  A single best-of ratio spread from -0.2% to +11%
# between runs of the same code, wider than the 5% it gates.
OVERHEAD_PAIRS = 61


def _interleaved_best(fns, repeats: int = 4) -> list[float]:
    """Best-of timing with the contenders interleaved per repeat."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _serve_direct() -> list:
    """Drive the service layer directly (the pre-v1 calling convention)."""
    with SimulationService(
        max_batch_size=16, store=ResultStore(capacity=64), start=False
    ) as service:
        futures = [service.submit(config) for config in OVERHEAD_CONFIGS]
        service.flush()
        return [future.result() for future in futures]


def _serve_via_client() -> list:
    """The same stream through the public Client façade."""
    with Client(max_batch_size=16, store=ResultStore(capacity=64),
                background=False) as client:
        return client.map([
            RunRequest(config=config, id=f"req-{i}")
            for i, config in enumerate(OVERHEAD_CONFIGS)
        ])


def _serve_tier(dtype: str) -> list:
    configs = (
        TIER_CONFIGS if dtype == "float64"
        else [c.with_updates(dtype="float32") for c in TIER_CONFIGS]
    )
    with Client(max_batch_size=TIER_BATCH, store=ResultStore(capacity=4),
                background=False) as client:
        return client.map(configs)


@pytest.fixture(scope="module")
def measurements() -> dict:
    # Parity first (uncached passes): the client must return bitwise
    # the series the direct service produced for every float64 request.
    direct = _serve_direct()
    via_client = _serve_via_client()
    for served, result in zip(direct, via_client):
        assert result.status == "ok"
        assert result.key == served.key
        for name, values in served.series.items():
            np.testing.assert_array_equal(
                np.asarray(result.series[name]), np.asarray(values),
                err_msg=f"client result differs from direct service in {name!r}",
            )

    times_client, times_direct = paired_times(
        _serve_via_client, _serve_direct, OVERHEAD_PAIRS
    )
    quartiles = ratio_quartiles(times_client, times_direct)

    t64, t32 = _interleaved_best(
        [lambda: _serve_tier("float64"), lambda: _serve_tier("float32")],
        repeats=3,
    )
    return {
        "n_overhead_requests": len(OVERHEAD_CONFIGS),
        "n_overhead_pairs": OVERHEAD_PAIRS,
        "direct_service_s": float(np.median(times_direct)),
        "client_s": float(np.median(times_client)),
        "client_overhead_fraction": quartiles["median"],
        "client_overhead_quartiles": quartiles,
        "max_client_overhead_fraction": MAX_CLIENT_OVERHEAD,
        "tier_batch": TIER_BATCH,
        "tier_steps": TIER_CONFIGS[0].n_steps,
        "tier_particles_per_run": TIER_CONFIGS[0].n_particles,
        "float64_s": t64,
        "float32_s": t32,
        "float32_speedup": t64 / t32,
        "min_float32_speedup": MIN_FLOAT32_SPEEDUP,
    }


def test_client_overhead_under_5_percent(measurements, results_dir):
    dump_result(results_dir, "BENCH_api", measurements)
    assert measurements["client_overhead_fraction"] < MAX_CLIENT_OVERHEAD, (
        f"Client façade adds {measurements['client_overhead_fraction']:.1%} "
        f"over direct service calls (budget {MAX_CLIENT_OVERHEAD:.0%})"
    )


def test_float32_tier_at_least_1_5x(measurements, results_dir):
    dump_result(results_dir, "BENCH_api", measurements)
    assert measurements["float32_speedup"] >= MIN_FLOAT32_SPEEDUP, (
        f"float32 tier speedup {measurements['float32_speedup']:.2f}x at "
        f"batch {TIER_BATCH} is below the {MIN_FLOAT32_SPEEDUP}x gate"
    )
