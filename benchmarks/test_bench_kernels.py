"""Kernel dtype tier — the Vlasov float32 speed gate.

The Vlasov float32 tier must reach >= 1.3x over float64 in the median
of interleaved warm pairs (pure bandwidth/FFT win, no parallel hardware
needed, enforced everywhere) while staying within a single-precision
band of the float64 trajectory.  The numbers land in
``.artifacts/results/BENCH_kernels.json``, uploaded as a CI artifact.
"""

import time

import numpy as np
from conftest import dump_result, paired_times, ratio_quartiles

from repro.config import SimulationConfig
from repro.vlasov.ensemble import VlasovEnsemble

# The Vlasov float32 gate is a memory-bandwidth + FFT-width win, so the
# grid is sized to live well outside L2.
VLASOV = SimulationConfig(
    solver="vlasov", scenario="two_stream", n_cells=128, n_steps=20,
    vth=0.25, v0=1.0, seed=1, extra={"n_v": 256, "v_min": -6.0, "v_max": 6.0},
)
VLASOV_BATCH = 8
VLASOV_PAIRS = 15


def _run_vlasov(dtype="float64"):
    """Build + run the Vlasov ensemble; return (elapsed_s, state dict)."""
    config = VLASOV.with_updates(dtype=dtype)
    ens = VlasovEnsemble([config.with_updates(seed=b) for b in range(VLASOV_BATCH)])
    start = time.perf_counter()
    ens.run(VLASOV.n_steps)
    elapsed = time.perf_counter() - start
    return elapsed, {"f": ens.f, "efield": ens.efield}


def test_vlasov_float32_speedup(results_dir):
    # One warm-up run per tier, then interleaved pairs: a single
    # un-warmed ~0.2 s run per tier measured below its own noise.
    _, reference = _run_vlasov(dtype="float64")
    _, candidate = _run_vlasov(dtype="float32")
    f64_times, f32_times = paired_times(
        lambda: _run_vlasov(dtype="float64"),
        lambda: _run_vlasov(dtype="float32"),
        pairs=VLASOV_PAIRS,
    )
    quartiles = {
        name: 1.0 + value
        for name, value in ratio_quartiles(f64_times, f32_times).items()
    }
    speedup = quartiles["median"]
    # The tier is dtype-preserving end to end and must stay within a
    # single-precision band of the double trajectory.
    assert candidate["f"].dtype == np.float32
    assert candidate["efield"].dtype == np.float32
    field_err = float(
        np.max(np.abs(candidate["efield"].astype(np.float64) - reference["efield"]))
    )
    scale = max(1.0, float(np.max(np.abs(reference["efield"]))))
    assert np.all(np.isfinite(candidate["f"]))
    assert field_err <= 1e-4 * scale
    f64_s, f32_s = float(np.median(f64_times)), float(np.median(f32_times))
    dump_result(results_dir, "BENCH_kernels", {
        "vlasov_float32": {
            "batch": VLASOV_BATCH,
            "grid": [int(VLASOV.extra["n_v"]), VLASOV.n_cells],
            "n_steps": VLASOV.n_steps,
            "pairs": VLASOV_PAIRS,
            "float64_s": f64_s,
            "float32_s": f32_s,
            "speedup": speedup,
            "speedup_quartiles": quartiles,
            "max_field_error": field_err,
            "gate": ">=1.3x over float64, median of interleaved pairs "
                    "(enforced everywhere)",
        },
    })
    assert speedup >= 1.3, (
        f"expected the Vlasov float32 tier >= 1.3x over float64, got a median "
        f"{speedup:.2f}x over {VLASOV_PAIRS} pairs (quartiles "
        f"{quartiles['q1']:.2f}-{quartiles['q3']:.2f}x; median float64 "
        f"{f64_s:.3f}s, float32 {f32_s:.3f}s)"
    )
