"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds, each pass in a fresh interpreter
(worker.py), checks every output, prints a readable summary and, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones, medians
over the untraced passes.  With --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones plus trace.overhead_s.
Set-up time is also sampled by SETUP_SAMPLES set-up-only workers.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("validate-catalog", "search", "render")
SETUP_SAMPLES = 8
RUN_LIMIT_S = 175  # a run must end within 180 s
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, started: float, *flags: str) -> dict:
    """Run one worker and return its JSON result; give up when the run
    would exceed RUN_LIMIT_S."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, int]:
    """The sample at the highest percentile that has at least ten samples
    beyond it, and that percentile; the maximum when there are fewer than
    eleven samples."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100
    return ordered[-11], (len(ordered) - 10) * 100 // len(ordered)


def run_passes(workload: str, seed: int, seconds: float, traced: bool, started: float):
    """Untraced passes, alternating with traced ones when traced is set,
    while the next pass is predicted to end within the run's time; at least
    one of each kind."""
    kinds = [False, True] if traced else [False]
    passes: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    last: dict[bool, float] = {}
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        done = all(passes.values())
        if done and time.perf_counter() - started + last[kind] > seconds:
            return passes
        t = time.perf_counter()
        flags = ["--trace"] if kind else []
        passes[kind].append(run_worker(workload, seed * 1000 + i, started, *flags))
        last[kind] = time.perf_counter() - t
        i += 1


def check_outputs(all_passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes, with the reasons.
    An operation also fails when its output differs between passes, traced
    or not."""
    attempted = failed = 0
    reasons: list[str] = []
    first: dict[str, dict] = {}
    for p in all_passes:
        for name in p["ops"]:
            attempted += 1
            why = p["errors"].get(name)
            summary = p["summaries"].get(name)
            if why is None and first.setdefault(name, summary) != summary:
                why = "output differs from an earlier pass"
            if why is not None:
                failed += 1
                reasons.append(f"{name}: {why}")
    return attempted, failed, reasons


def end_to_end(untraced: list[dict], setups: list[float]) -> tuple[dict, dict]:
    tails = [tail(p["op_s"]) for p in untraced]
    metrics = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in untraced]),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "op_p50_s": statistics.median(statistics.median(p["op_s"]) for p in untraced),
        "op_tail_s": statistics.median(value for value, _ in tails),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in untraced),
    }
    notes = {
        "op_tail_s": f"p{tails[0][1]} of {len(untraced[0]['op_s'])} operations per pass",
        "wall_s": "passes " + ", ".join(f"{p['wall_s']:.3f}" for p in untraced),
        "setup_s": f"{len(setups) + len(untraced)} samples",
    }
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in LAYER_UNITS if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "gridcurve" / "catalog.py").is_file():
        print(f"no gridcurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [run_worker(args.workload, args.seed, started, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), started)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    untraced, traced = passes[False], passes.get(True, [])
    attempted, failed, reasons = check_outputs(untraced + traced)
    e2e, notes = end_to_end(untraced, setups)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes in {time.perf_counter() - started:.1f} s")
    for name, value in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"  {'error_rate':<14} {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    for why in reasons:
        print(f"  failed: {why}")

    if args.trace:
        metrics, units = per_layer(untraced, traced), LAYER_UNITS
        for name, value in metrics.items():
            print(f"  {name:<44} {value:.6g} {units[name]}")
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
