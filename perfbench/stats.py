"""Summary statistics and output-format rules of the benchmark.

* :func:`tail_percentile` / :func:`highest_percentile` implement the
  percentile rule: a percentile is reported only when at least
  :data:`MIN_BEYOND` samples lie beyond it.
* :func:`check_metric_table` validates metric names, units and the
  caps on how many end-to-end and per-layer metrics may be declared.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Iterable, Sequence

#: A percentile needs at least this many samples strictly beyond it.
MIN_BEYOND = 10

#: Percentiles tried, highest first, by :func:`highest_percentile`.
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

MAX_END_TO_END = 16
MAX_PER_LAYER = 128

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    if n < 1:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * n))
    return n - rank


def tail_percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile, refused without enough samples beyond it."""
    n = len(values)
    beyond = samples_beyond(n, pct)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond} beyond it; "
            f"need >= {MIN_BEYOND}"
        )
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(pct / 100.0 * n)) - 1])


def highest_percentile(n: int) -> "float | None":
    """The highest candidate percentile ``n`` samples support, if any."""
    for pct in CANDIDATE_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def check_metric_table(end_to_end: Sequence[dict], per_layer: Sequence[dict]) -> None:
    """Raise ValueError unless both metric lists obey the naming rules and caps."""
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        raise ValueError(
            f"{len(end_to_end)} end-to-end metrics; allowed 1..{MAX_END_TO_END}"
        )
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        raise ValueError(
            f"{len(per_layer)} per-layer metrics; allowed 1..{MAX_PER_LAYER}"
        )
    seen: "set[str]" = set()
    for entry in list(end_to_end) + list(per_layer):
        name, unit = entry["name"], entry["unit"]
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not UNIT_RE.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for metric {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)
        if entry["better"] not in ("higher", "lower"):
            raise ValueError(f"metric {name!r}: better must be higher or lower")
