"""Smoke run of scripts/run_pipeline.py, so a stale flag in it fails here."""

import os
import subprocess
import sys
from pathlib import Path

import meirl

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def test_run_pipeline_quick_writes_five_row_table(tmp_path):
    src = str(Path(meirl.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--quick"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "eval" / "table.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["ekf", "bc", "random", "irl_nokin", "ours"]
