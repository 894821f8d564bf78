"""The benchmark's own checks.

    python3 -m pytest -q perfbench/check_benchmark.py

The name keeps these checks out of the repository's default test run: the
determinism check makes two traced runs of every workload, about three
minutes in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

# counts that must repeat exactly whatever the seed and the machine load
DETERMINISTIC = (
    "gridmodel.realize.calls",
    "gridmodel.realize.edges",
    "search.enumerate_curve_sets.nodes",
    "search.candidates_validated",
    "search.TorusPatch.symmetries.count",
    "render.svg_bytes",
)


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_runs(workload):
    first, second = traced_run(workload, 1), traced_run(workload, 2)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("outer", 0.0, 10.0, -1),
        tracing.Span("inner", 1.0, 4.0, 0),
        tracing.Span("leaf", 2.0, 3.0, 1),
        tracing.Span("inner", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_recorder_records_and_restores_bindings():
    sys.path.insert(0, str(HERE.parent / "src"))
    from gridcurve import catalog, gridmodel, render, validator

    square = catalog.grid("square")
    realize, faces = gridmodel.realize, gridmodel.Patch.faces
    with tracing.Recorder() as rec:
        assert validator.realize is render.realize is gridmodel.realize is not realize
        patch = gridmodel.realize(square, 2)
    assert validator.realize is render.realize is gridmodel.realize is realize
    assert gridmodel.Patch.faces is faces
    assert [s.name for s in rec.spans] == ["gridmodel.realize"]
    assert rec.spans[0].counts == {"gridmodel.realize.edges": len(patch.edges)}


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_pinned_counts_agree_with_tier1_tests():
    expected = json.loads((HERE / "expected.json").read_text())
    assert expected["colorings square 4x4 m=4"]["count"] == 5
    assert expected["colorings square 5x5 m=5"]["count"] == 1
    assert all(v["complete"] for k, v in expected.items() if k.startswith("enumerate"))
