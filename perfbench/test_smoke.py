"""Smoke run of the benchmark, about a minute on two cores:

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once traced with a one-second budget and must emit every
per-layer metric of BENCHMARK.json with its unit; one untraced run must emit
every end-to-end metric. A directory holding only the benchmark, without the
program, must make it fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(_bench(ROOT, workload, trace=1))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_untraced_run_emits_every_end_to_end_metric():
    result = _result(_bench(ROOT, "bc_train_32", trace=0))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    proc = _bench(tmp_path, "train_irl", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
