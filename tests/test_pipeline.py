"""Smoke runs of the scripts, so a stale flag or import in one fails here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import meirl
from meirl.cli import forecast, main
from meirl.mdp import state_distribution
from meirl.reward_net import load_net
from meirl.synthetic import Scene, generate_world

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def script_env():
    src = str(Path(meirl.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_run_pipeline_quick_writes_five_row_table(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_pipeline.py"),
                           "--out", str(out), "--quick"],
                          env=script_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "eval" / "table.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["ekf", "bc", "random", "irl_nokin", "ours"]


def test_speed_entropy_experiment_matches_the_cli_forecast(tmp_path):
    data, run_dir, maps = tmp_path / "data", tmp_path / "ours", tmp_path / "maps"
    assert main(["generate", "--out", str(data), "--demos", "4", "--rows", "16",
                 "--cols", "16", "--seed", "2"]) == 0
    assert main(["train", "--dataset", str(data), "--out", str(run_dir),
                 "--iterations", "1", "--batch-size", "2"]) == 0
    ckpt = run_dir / "checkpoint.ckpt"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "speed_entropy_experiment.py"),
                           "--checkpoint", str(ckpt), "--out", str(maps)],
                          env=script_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "entropy gap (slow - fast):" in proc.stdout

    # the slow-approach terminal map, recomputed through the forecast that
    # predict and eval run
    spec = importlib.util.spec_from_file_location(
        "speed_entropy_experiment", SCRIPTS / "speed_entropy_experiment.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    net = load_net(ckpt, "two_stage")[0]
    world = generate_world(seed=0, rows=16, cols=16, layout="tee")
    start, heading, _ = script.scenario(world, 3)
    scene = Scene(world, script.straight_past(start, heading, 2.0, 1.0), start)
    (policy,), _ = forecast(net, [scene])
    expected = state_distribution([policy], [start], [14])[0]
    written = np.loadtxt(maps / "terminal_slow.csv", delimiter=",")
    assert np.array_equal(written, expected)


def test_speed_entropy_experiment_reports_config_errors_without_a_traceback(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--demos", "4", "--rows", "16",
                 "--cols", "16", "--seed", "2"]) == 0
    for method in ("ours", "irl_nokin"):
        assert main(["train", "--dataset", str(data), "--out", str(tmp_path / method),
                     "--method", method, "--iterations", "0"]) == 0
    # a net without the kinematic stage, and a start farther back than the arm
    for method, extra, words in (("irl_nokin", [], ("'env_only'", "'two_stage'")),
                                 ("ours", ["--approach", "99"], ("approach arm",))):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "speed_entropy_experiment.py"),
                               "--checkpoint", str(tmp_path / method / "checkpoint.ckpt"),
                               *extra],
                              env=script_env(), capture_output=True, text=True, timeout=600)
        assert proc.returncode != 0
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert all(word in proc.stderr for word in words), proc.stderr
