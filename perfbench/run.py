"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload low --seed 1 --seconds 15 --trace 0

Every run sets the program up (``SETUP_REPS`` times; ``setup_s`` is the
median), then runs ``campaign_harvest``, ``paper_two_stream`` and
``serve_http`` in turn.  ``--workload`` picks the serve_http offered
rate (``low`` or ``high``); ``--seconds`` is the length of that phase.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layer entry points and prints the
per-layer metrics instead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a failed correctness
check exits 1.  Details (and, traced, every span) are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_DIR = ROOT / ".artifacts" / "medium" / "mlp"

#: Printed beside the end-to-end metrics but not bounded: too unsteady
#: from run to run (see README).
REPORTED_UNITS = {
    "trad_particle_steps_per_s": "1/s", "dl_particle_steps_per_s": "1/s",
    "serve_p50_ms": "ms", "serve_p80_ms": "ms",
    "trad_gamma_relerr": "ratio", "dl_gamma_relerr": "ratio",
}


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cache_size(level: int) -> str:
    """Size of the first cache of ``level`` listed for cpu0 in sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level:
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def source_hash() -> str:
    """sha256 over every ``src/**/*.py`` path and content."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, fingerprint: str) -> "dict[str, object]":
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "l2_cache": cache_size(2),
        "l3_cache": cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_hash(),
        "model_dir": str(MODEL_DIR.relative_to(ROOT)),
        "model_fingerprint": fingerprint,
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not MODEL_DIR.is_dir():
        print(f"error: run from a checkout holding src/repro and "
              f"{MODEL_DIR.relative_to(ROOT)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    # A SIGTERM unwinds like an exception, so the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import suite
    from spans import SpanRecorder
    from stats import check_metric_table, median

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_table(spec["end_to_end"], spec["per_layer"])
    if args.workload not in suite.SERVE_RATES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(suite.SERVE_RATES)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    run_dir = suite.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    recorder = SpanRecorder()
    metrics: "dict[str, float]" = {}
    layers: "dict[str, float]" = {}
    counts: "dict[str, int]" = {}
    samples: "dict[str, list]" = {}
    checks: "list[tuple[str, bool, str]]" = []
    notes: "list[str]" = []
    attempted = failed = 0
    rig = None
    with recorder.patch(suite.engine_targets() if trace else []):
        try:
            setups = []
            recorder.segment = "setup"
            for rep in range(suite.SETUP_REPS):
                recorder.enabled = trace
                t0 = time.perf_counter()
                rig = suite.set_up(args.seed + 1000 * rep, run_dir, rep)
                setups.append(time.perf_counter() - t0)
                recorder.enabled = False
                if rep < suite.SETUP_REPS - 1:
                    rig.close()
                    rig = None
            metrics["setup_s"] = median(setups)
            samples["setup_s"] = setups
            counts["setup_s"] = len(setups)
            info = provenance(args, rig.fingerprint)
            for key, value in info.items():
                print(f"# {key}: {value}")

            # campaign_harvest runs first: its large arrays, once freed,
            # raise glibc's mmap threshold, which speeds up the 205 KB
            # arrays of paper_two_stream ~1.8x.  Running paper_two_stream
            # after it keeps every paper run in that one steady state.
            for segment, run in (
                ("campaign", lambda: suite.run_campaign(
                    rig, args.seed, run_dir, recorder, trace)),
                ("paper", lambda: suite.run_paper(rig, args.seed, recorder, trace)),
                ("serve", lambda: suite.run_serve(
                    rig, args.seed, args.workload, args.seconds, recorder, trace)),
            ):
                recorder.segment = segment
                t0 = time.perf_counter()
                outcome = run()
                notes.append(f"{segment} workload took {time.perf_counter() - t0:.1f} s")
                metrics.update(outcome.metrics)
                layers.update(outcome.layers)
                counts.update(outcome.counts)
                samples.update(outcome.samples)
                checks.extend(outcome.checks)
                notes.extend(outcome.notes)
                attempted += outcome.attempted
                failed += outcome.failed
            metrics["serve_peak_rss_mb"] = suite.vm_hwm_mb(rig.server.pid)
        except Exception:
            traceback.print_exc()
            return 1
        finally:
            recorder.enabled = False
            if rig is not None:
                rig.close()
    metrics["ok_frac"] = (attempted - failed) / attempted if attempted else 0.0
    counts["ok_frac"] = attempted
    if trace:
        load_ms = [1e3 * s.duration for s in recorder.spans if s.name == "dlpic.load"]
        layers["paper.dlpic.load_ms"] = median(load_ms) if load_ms else 0.0

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    checks.append(("every declared metric measured", not missing, ", ".join(missing)))
    correct = all(ok for _, ok, _ in checks)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORTED_UNITS)
    print("## end-to-end metrics" if not trace else "## per-layer metrics")
    for name in [m["name"] for m in declared if m["name"] in values]:
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name} = {values[name]:.6g} {units[name]}{n}")
    if not trace:
        for name, unit in REPORTED_UNITS.items():
            if name in metrics:
                n = f", n={counts[name]}" if name in counts else ""
                print(f"{name} = {metrics[name]:.6g} {unit}  (reported, not bounded{n})")
    print("## checks")
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" — {detail}" if detail else ""))
    print("## notes")
    for note in notes:
        print(note)

    details = {
        "provenance": info,
        "metrics": metrics,
        "layers": layers,
        "counts": counts,
        "samples": samples,
        "checks": checks,
        "notes": notes,
    }
    (run_dir / "result.json").write_text(json.dumps(details, indent=2))
    if trace:
        (run_dir / "spans.json").write_text(
            json.dumps([s.to_dict() for s in recorder.spans]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
