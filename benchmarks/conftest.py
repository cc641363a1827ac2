"""Benchmark fixtures.

The benches regenerate the paper's tables/figures at the ``medium``
preset.  Training is expensive (~15 min CPU), so the trained solvers
are cached on disk under ``.artifacts/medium`` — the first benchmark
session pays the cost, later sessions load in seconds.

Numeric results are also dumped to ``.artifacts/results/*.json`` so the
EXPERIMENTS.md paper-vs-measured tables can cite exact values.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.experiments.pipeline import (
    DEFAULT_CACHE,
    TrainedSolvers,
    medium_preset,
    train_solvers,
)

RESULTS_DIR = Path(DEFAULT_CACHE) / "results"


@pytest.fixture(scope="session")
def solvers() -> TrainedSolvers:
    """Medium-preset trained MLP + CNN (cached on disk)."""
    return train_solvers(medium_preset(), cache_dir=DEFAULT_CACHE, include_cnn=True)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def dump_result(results_dir: Path, name: str, payload: dict) -> None:
    """Persist a benchmark's numeric outcome for EXPERIMENTS.md."""
    (results_dir / f"{name}.json").write_text(json.dumps(payload, indent=2))


def paired_times(
    fn_a: Callable[[], object], fn_b: Callable[[], object], pairs: int
) -> "tuple[list[float], list[float]]":
    """Wall times of ``pairs`` back-to-back runs of two contenders.

    Each pair runs both contenders, alternating which goes first, so a
    slow drift of the machine (other tenants, clocks, allocator state)
    hits both halves of a pair alike and cancels in the pair's ratio.
    Gate on the median of the per-pair ratios (:func:`ratio_quartiles`).
    """
    times: "tuple[list[float], list[float]]" = ([], [])
    for i in range(pairs):
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            (fn_a, fn_b)[j]()
            times[j].append(time.perf_counter() - start)
    return times


def ratio_quartiles(times_a: "list[float]", times_b: "list[float]") -> "dict[str, float]":
    """Quartiles of the per-pair overheads ``t_a / t_b - 1``."""
    overheads = np.asarray(times_a) / np.asarray(times_b) - 1.0
    q1, median, q3 = np.percentile(overheads, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}
