"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Times the set-up (importing gridcurve, parsing the catalog, building the
inputs), then each operation and the whole pass, checks every output
against its oracle after the pass, and prints one JSON object on stdout.
With --trace the pass runs under the span recorder and the object also
holds the per-layer metrics.  run.py starts one worker per pass so that
gridcurve's module-level caches never carry over from one pass to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    recorder = tracing.Recorder() if args.trace else contextlib.nullcontext()
    with recorder:
        ops = workloads.set_up(args.workload, args.seed)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outputs, op_s = [], []
        pass_start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception as exc:  # a raising operation counts as failed
                outputs.append(exc)
            op_s.append(time.perf_counter() - t)
        wall_s = time.perf_counter() - pass_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summaries, errors = {}, {}
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            errors[op.name] = f"raised {type(out).__name__}: {out}"
            continue
        summaries[op.name] = op.summarize(out)
        why = op.check(summaries[op.name])
        if why is not None:
            errors[op.name] = why
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": [op.name for op in ops],
        "op_s": op_s,
        "peak_rss_mib": peak_rss_mib,
        "summaries": summaries,
        "errors": errors,
    }
    if args.trace:
        result["layers"] = tracing.layer_metrics(recorder.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
