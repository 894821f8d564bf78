"""Rewrite expected.json from the outputs of the code under src/.

    python3 perfbench/pin_expected.py

The search and render oracles compare against these pinned summaries, so
run this only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> None:
    pinned = {}
    for workload in ("search", "render"):
        for op in workloads.set_up(workload, 0, expected={}):
            pinned[op.name] = op.summarize(op.run())
    workloads.EXPECTED_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
