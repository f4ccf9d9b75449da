"""Smoke test of the benchmark: every workload at toy size, in seconds.

    python3 -m pytest benchmarks

Checks that each run prints the metric names and units BENCHMARK.json
declares, that its outputs pass their checks, and that every count metric
repeats exactly: across the traced units of one run and across two seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metric_names(workload):
    metrics = _run(workload, seed=3, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metric_names_and_deterministic_counts(workload):
    declared = _declared("per_layer")
    runs = [_run(workload, seed, trace=1)["metrics"] for seed in (3, 4)]
    for metrics in runs:
        assert {k: v["unit"] for k, v in metrics.items()} == declared
    counts = [name for name, unit in declared.items() if unit == "count"]
    assert [runs[0][c]["value"] for c in counts] == [runs[1][c]["value"] for c in counts]
    assert runs[0]["estimation.estimate_tables.calls"]["value"] > 0

    spans = ROOT / ".bench_work" / f"{workload}-seed4-toy" / "spans.jsonl"
    per_unit: dict = {}
    for line in spans.read_text().splitlines():
        span = json.loads(line)
        per_unit.setdefault(span["unit"], Counter())[span["name"]] += 1
    assert len(per_unit) >= 1
    assert all(calls == per_unit[min(per_unit)] for calls in per_unit.values())
