import argparse
import dataclasses
import hashlib
import json
import math
import shutil
import struct
import warnings

import numpy as np
import pytest

from conftest import CORRUPT_META, with_meta_block
from meirl import mdp, trainer
from meirl.baselines import bc_policy
from meirl.cli import (METHOD_KIND, METHOD_ORDER, EvalConfig, PredictConfig, build_parser,
                       forecast, main)
from meirl.checkpoint import load_checkpoint, save_checkpoint
from meirl.dataset import GenerateConfig, load_dataset, load_demo, save_demo
from meirl.errors import ConfigError
from meirl.kinematics import PastTrack
from meirl.mdp import (compute_svf, sample_trajectories, state_distribution, uniform_policy,
                       value_iteration)
from meirl.reward_net import build_net, forward, load_net
from meirl.synthetic import DEMO_BETA, Scene
from meirl.trainer import TrainConfig

GEN_ARGS = ["--demos", "8", "--rows", "16", "--cols", "16", "--split", "0.75",
            "--seed", "3", "--horizon-min", "15", "--horizon-max", "16"]


def load_map_csv(path):
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def run(*argv):
    return main([str(a) for a in argv])


def record_offsets(demo):
    """Byte offsets, in the dataset record of `demo`, of its first past sample
    and of its horizon field."""
    past = 16 + 20 * demo.world.rows * demo.world.cols + 4
    return past, past + 24 * len(demo.past)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "ds"
    assert run("generate", "--out", d, *GEN_ARGS) == 0
    return d


@pytest.fixture(scope="module")
def ours_ckpt(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("train") / "ours"
    assert run("train", "--dataset", dataset_dir, "--out", out,
               "--iterations", "3", "--batch-size", "2", "--seed", "1") == 0
    return out / "checkpoint.ckpt"


@pytest.fixture(scope="module")
def nokin_ckpt(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("train") / "nokin"
    assert run("train", "--dataset", dataset_dir, "--out", out, "--method",
               "irl_nokin", "--iterations", "2", "--batch-size", "2") == 0
    return out / "checkpoint.ckpt"


@pytest.fixture(scope="module")
def bc_ckpt(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("train") / "bc"
    assert run("train", "--dataset", dataset_dir, "--out", out, "--method",
               "bc", "--iterations", "8") == 0
    return out / "checkpoint.ckpt"


def dir_bytes(root, skip=("resolved_config.json",)):
    # resolved_config.json embeds the absolute output path, so byte-level
    # comparisons between directories must leave it out
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


# ---------------------------------------------------------------------------
# generate

def test_generate_prints_counts_and_split(dataset_dir, capsys):
    # rerun into a fresh dir to capture the output of a known config
    out = dataset_dir.parent / "ds_counts"
    assert run("generate", "--out", out, *GEN_ARGS) == 0
    text = capsys.readouterr().out
    assert "6 train / 2 test" in text
    assert "straight=" in text and "intersection=" in text


def test_generate_same_seed_byte_identical(dataset_dir, tmp_path):
    again = tmp_path / "ds_again"
    assert run("generate", "--out", again, *GEN_ARGS) == 0
    a, b = dir_bytes(dataset_dir), dir_bytes(again)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


def test_generate_balance_equal(tmp_path, capsys):
    out = tmp_path / "balanced"
    assert run("generate", "--out", out, "--demos", "9", "--rows", "16",
               "--cols", "16", "--split", "1.0", "--seed", "5",
               "--horizon-min", "15", "--horizon-max", "16",
               "--layouts", "straight,curve,tee", "--balance", "equal") == 0
    _, _, manifest = load_dataset(out)
    counts = manifest["tag_counts"]["train"]
    assert all(abs(counts[t] - 3) <= 1 for t in ("straight", "curve", "intersection"))


def test_generate_refuses_overwrite(dataset_dir, capsys):
    assert run("generate", "--out", dataset_dir, *GEN_ARGS) == 2
    assert "already exists" in capsys.readouterr().err


def test_generate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"demos": 5}))  # the field is called n_demos
    assert run("generate", "--out", tmp_path / "x", "--config", cfg) == 2
    assert "demos" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("gamma", 0.9), ("off_trail", -1.0),
                                        ("ray_rate", 0.5)])
def test_generate_config_rejects_expert_constants(tmp_path, capsys, key, value):
    # the expert's reward and planner are fixed constants, not settings
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_demos": 4, key: value}))
    assert run("generate", "--out", tmp_path / "x", "--config", cfg) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_demos": 4, "rows": 16, "cols": 16,
                               "split": 1.0, "horizon_min": 15,
                               "horizon_max": 16, "seed": 3}))
    out = tmp_path / "ds"
    assert run("generate", "--out", out, "--config", cfg, "--demos", "5") == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["config"]["n_demos"] == 5
    train, test, _ = load_dataset(out)
    assert len(train) + len(test) == 5


def test_generate_balance_none_beats_config_file_balance(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"balance": {"straight": 1.0}}))
    plain, unbalanced = tmp_path / "plain", tmp_path / "unbalanced"
    assert run("generate", "--out", plain, *GEN_ARGS) == 0
    assert run("generate", "--out", unbalanced, "--config", cfg, "--balance", "none",
               *GEN_ARGS) == 0
    _, _, manifest = load_dataset(unbalanced)
    assert manifest["config"]["balance"] is None
    assert dir_bytes(unbalanced) == dir_bytes(plain)


@pytest.mark.parametrize("spec", ["even", "{not json"])
def test_generate_bad_balance_names_the_flag(tmp_path, capsys, spec):
    assert run("generate", "--out", tmp_path / "x", "--balance", spec) == 2
    assert "--balance" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("source, spec, message", [
    ("flag", '{"straight": "x"}', "nonnegative numbers"),
    ("flag", '{"straight": -0.5, "curve": 1.5}', "nonnegative numbers"),
    ("flag", '{"straight": true}', "nonnegative numbers"),
    ("flag", '{"zigzag": 1.0}', "unknown tags"),
    ("flag", '{"straight": 0.5}', "sum to 0.5"),
    ("config", '["straight"]', "JSON object"),
])
def test_generate_checks_the_balance_spec_before_generating(tmp_path, capsys, monkeypatch,
                                                            source, spec, message):
    def generate(*args, **kwargs):
        raise AssertionError("demos generated before the balance spec was checked")

    monkeypatch.setattr("meirl.dataset.generate_demonstrations", generate)
    if source == "flag":
        given = ["--balance", spec]
    else:
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"balance": json.loads(spec)}))
        given = ["--config", cfg]
    assert run("generate", "--out", tmp_path / "x", *given, *GEN_ARGS) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_speeds_flag_sets_the_drawn_speeds(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"speeds": [2.0, 4.0, 8.0]}))
    out = tmp_path / "ds"
    assert run("generate", "--out", out, "--config", cfg, "--speeds", "3, 5",
               *GEN_ARGS) == 0
    train_demos, test_demos, manifest = load_dataset(out)
    assert manifest["config"]["speeds"] == [3.0, 5.0]
    assert {d.expert_speed for d in train_demos + test_demos} <= {3.0, 5.0}
    assert run("generate", "--out", tmp_path / "x", "--speeds", "2,fast") == 2
    assert "--speeds" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_infinite_resolution_exits_2(tmp_path, capsys):
    assert run("generate", "--out", tmp_path / "x", "--resolution", "inf", *GEN_ARGS) == 2
    assert "resolution must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, data, message", [
    ("train", {"iterations": "5"}, "TrainConfig field 'iterations' must be of type int"),
    ("train", {"augment": 1}, "TrainConfig field 'augment' must be of type bool"),
    ("train", {"learning_rate": True}, "TrainConfig field 'learning_rate' must be of type float"),
    ("predict", {"samples": 2.5}, "PredictConfig field 'samples' must be of type int"),
    ("predict", {"method": 3}, "PredictConfig field 'method' must be of type str"),
    ("eval", {"methods": "ours"}, "EvalConfig field 'methods' must be of type tuple"),
    ("generate", {"speeds": ["fast"]}, "GenerateConfig field 'speeds' must be of type tuple"),
    ("generate", {"speeds": []}, "speeds must be a nonempty list"),
    ("generate", {"speeds": [2.0, -1]}, "speeds must be a nonempty list"),
])
def test_mistyped_config_values_exit_2(dataset_dir, ours_ckpt, tmp_path, capsys,
                                       command, data, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    inputs = {"generate": [], "train": ["--dataset", dataset_dir],
              "predict": ["--dataset", dataset_dir, "--checkpoint", ours_ckpt],
              "eval": ["--dataset", dataset_dir, "--checkpoint", ours_ckpt]}[command]
    assert run(command, "--out", tmp_path / "x", "--config", cfg, *inputs) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flags, config, message", [
    ("eval", [], {"methods": []}, "need at least one method to evaluate"),
    ("eval", ["--methods", "random,random"], None, "duplicate methods requested"),
    ("eval", ["--samples", "0"], None, "samples must be at least 1"),
    ("eval", ["--methods", "ours", "--checkpoint", "MISSING"], None,
     "missing artifacts: checkpoint for method 'ours' at "),
    ("predict", ["--demo", "-1"], None, "demo index must be nonnegative"),
    ("predict", ["--samples", "-1"], None, "samples must be nonnegative"),
    ("predict", [], {"which": "val"}, "which must be 'train' or 'test'"),
    ("predict", [], "[1, 2]", "must hold a JSON object"),
    ("train", [], "{not json", "malformed JSON in "),
    ("generate", ["--demos", "0"], None, "n_demos must be at least 1"),
    ("generate", [], {"layouts": []}, "need at least one layout"),
    ("train", ["--resume", "MISSING"], None, "checkpoint not found: "),
])
def test_config_errors_exit_2_without_output(dataset_dir, ours_ckpt, tmp_path, capsys,
                                             command, flags, config, message):
    flags = [tmp_path / "missing.ckpt" if f == "MISSING" else f for f in flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config if isinstance(config, str)
                                           else json.dumps(config))
        flags += ["--config", tmp_path / "cfg.json"]
    inputs = {"generate": [], "train": ["--dataset", dataset_dir],
              "predict": ["--dataset", dataset_dir, "--checkpoint", ours_ckpt],
              "eval": ["--dataset", dataset_dir]}[command]
    assert run(command, "--out", tmp_path / "x", *inputs, *flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_eval_without_a_dataset_or_its_test_demos_exits_2(tmp_path, capsys):
    # an all-train split is refused before any method forms an empty batch
    data = tmp_path / "all_train"
    assert run("generate", "--out", data, "--demos", "3", "--rows", "12", "--cols", "12",
               "--split", "1.0") == 0
    capsys.readouterr()
    for dataset, message in ((data, "the dataset has no test demonstrations to evaluate"),
                             (tmp_path / "none", f"dataset manifest at {tmp_path / 'none'}")):
        assert run("eval", "--dataset", dataset, "--out", tmp_path / "x",
                   "--methods", "random") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["generate", "train", "train_bc", "predict", "eval"])
def test_negative_seed_exits_2_naming_the_seed(dataset_dir, ours_ckpt, tmp_path, capsys,
                                               command):
    inputs = {"generate": ["generate"],
              "train": ["train", "--dataset", dataset_dir],
              "train_bc": ["train", "--dataset", dataset_dir, "--method", "bc"],
              "predict": ["predict", "--dataset", dataset_dir, "--checkpoint", ours_ckpt],
              "eval": ["eval", "--dataset", dataset_dir, "--checkpoint", ours_ckpt]}[command]
    assert run(*inputs, "--out", tmp_path / "x", "--seed", "-1") == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# the arguments of each command that are not fields of its config class
NON_CONFIG = {
    "generate": {"out", "config", "overwrite"},
    "train": {"dataset", "out", "config", "method", "resume", "workers"},
    "predict": {"dataset", "out", "config", "checkpoint"},
    "eval": {"dataset", "out", "config", "checkpoint", "checkpoint_nokin",
             "checkpoint_bc", "workers"},
}
CONFIG_CLASS = {"generate": GenerateConfig, "train": TrainConfig,
                "predict": PredictConfig, "eval": EvalConfig}


@pytest.mark.parametrize("command", sorted(CONFIG_CLASS))
def test_every_flag_is_a_config_field_or_a_listed_argument(command):
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    fields = {f.name for f in dataclasses.fields(CONFIG_CLASS[command])}
    dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
    assert dests - NON_CONFIG[command] <= fields
    assert not NON_CONFIG[command] & fields
    # a flag not given leaves its field out, so the config file's value stands
    required = ["--out", "o"] + ([] if command == "generate" else ["--dataset", "d"])
    given = vars(parser.parse_args([command, *required]))
    assert not set(given) & fields


def test_method_choices_come_from_the_method_tables():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    choices = {command: next(a.choices for a in subparsers[command]._actions
                             if a.dest == "method")
               for command in ("train", "predict")}
    assert tuple(choices["train"]) == tuple(METHOD_KIND)
    assert tuple(choices["predict"]) == METHOD_ORDER
    with pytest.raises(ConfigError, match="predict method must be one of"):
        PredictConfig(method="telepathy")


# ---------------------------------------------------------------------------
# train

def test_train_zero_iterations_checkpoint_is_init(dataset_dir, tmp_path):
    out = tmp_path / "zero"
    assert run("train", "--dataset", dataset_dir, "--out", out,
               "--iterations", "0", "--seed", "4") == 0
    store, _, iteration = load_checkpoint(out / "checkpoint.ckpt")
    assert iteration == 0
    fresh = build_net("two_stage", seed=4)
    for name, arr in fresh.parameters().items():
        assert np.array_equal(arr, store.params[name])
    assert (out / "report.csv").read_text().count("\n") == 1  # header only


def test_train_resume_continues_iteration_numbers(dataset_dir, ours_ckpt, tmp_path):
    out = tmp_path / "resumed"
    assert run("train", "--dataset", dataset_dir, "--out", out,
               "--iterations", "2", "--batch-size", "2", "--seed", "1",
               "--resume", ours_ckpt) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "5"]


def test_train_does_not_touch_the_dataset(dataset_dir, tmp_path):
    before = dir_bytes(dataset_dir)
    assert run("train", "--dataset", dataset_dir, "--out", tmp_path / "t",
               "--iterations", "1", "--batch-size", "2") == 0
    assert dir_bytes(dataset_dir) == before


def test_train_bc_rejects_resume(dataset_dir, ours_ckpt, tmp_path, capsys):
    rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "b",
             "--method", "bc", "--resume", ours_ckpt)
    assert rc == 2
    assert "resume" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["bad_config", "negative_seed", "wrong_resume",
                                  "bc_bad_config"])
def test_train_rejected_run_leaves_no_output_directory(dataset_dir, bc_ckpt, tmp_path,
                                                       case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iterations": -1}))
    given = {"bad_config": ["--config", cfg], "negative_seed": ["--seed", "-1"],
             "wrong_resume": ["--resume", bc_ckpt, "--iterations", "1"],
             "bc_bad_config": ["--method", "bc", "--config", cfg]}[case]
    assert run("train", "--dataset", dataset_dir, "--out", tmp_path / "x", *given) == 2
    assert not (tmp_path / "x").exists()


def test_train_bc_rejects_irl_only_flags(dataset_dir, tmp_path, capsys):
    rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "b",
             "--method", "bc", "--batch-size", "2", "--checkpoint-every", "5", "--no-augment")
    assert rc == 2
    err = capsys.readouterr().err
    assert "--batch-size, --checkpoint-every, --augment" in err
    assert not (tmp_path / "b").exists()
    assert run("train", "--dataset", dataset_dir, "--out", tmp_path / "ok",
               "--method", "bc", "--iterations", "1", "--workers", "1") == 0


def test_train_non_finite_reward_exits_3_with_iteration_and_demo(
        dataset_dir, ours_ckpt, tmp_path, capsys):
    # finite weights whose reward map overflows: a non-finite one is refused at load
    store, meta, iteration = load_checkpoint(ours_ckpt)
    store.params["s2.2.kernel"][...] = np.finfo(np.float64).max
    diverged = tmp_path / "diverged.ckpt"
    save_checkpoint(diverged, store, meta=meta, iteration=iteration)
    rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "d",
             "--iterations", "1", "--batch-size", "2", "--resume", diverged)
    assert rc == 3
    err = capsys.readouterr().err
    assert "training iteration 4: batch demo 0: reward map contains non-finite values" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["learning_rate_ours", "learning_rate_bc", "resolution",
                                  "split", "speeds"])
def test_non_finite_float_flag_exits_2_without_output(dataset_dir, tmp_path, capsys,
                                                      flag, value):
    # "--flag=value", so argparse reads "-inf" as a value and not as a flag
    given = {"learning_rate_ours": ["train", "--dataset", dataset_dir,
                                    f"--learning-rate={value}"],
             "learning_rate_bc": ["train", "--dataset", dataset_dir, "--method", "bc",
                                  f"--learning-rate={value}"],
             "resolution": ["generate", *GEN_ARGS, f"--resolution={value}"],
             "split": ["generate", *GEN_ARGS, f"--split={value}"],
             "speeds": ["generate", *GEN_ARGS, f"--speeds={value}"]}[flag]
    assert run(*given, "--out", tmp_path / "x") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("rate, why", [("1e300", "action logits contain non-finite values"),
                                       ("1", "a demo action has probability 0")])
def test_train_bc_divergence_exits_3_with_the_epoch(dataset_dir, tmp_path, capsys, rate, why):
    rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "d",
             "--method", "bc", "--iterations", "3", "--learning-rate", rate)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: epoch 1: ") and err.rstrip().endswith(why)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("method", list(METHOD_KIND))
def test_diverging_train_reports_one_runtime_error_line(dataset_dir, tmp_path, capsys,
                                                        method):
    irl_only = [] if method == "bc" else ["--batch-size", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "d",
                 "--method", method, "--iterations", "3", "--learning-rate", "1e300",
                 *irl_only)
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1


def test_non_finite_demo_gradient_exits_3_naming_iteration_and_demo(dataset_dir, tmp_path,
                                                                    capsys, monkeypatch):
    real_backward = trainer.backward
    calls = []

    def backward(net, acts, grad_out):
        grads = real_backward(net, acts, grad_out)
        calls.append(None)
        if len(calls) == 4:  # batch position 3 of the first iteration
            grads["s1.0.bias"][:] = np.inf
        return grads

    monkeypatch.setattr(trainer, "backward", backward)
    rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "d",
             "--iterations", "2", "--batch-size", "4")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("runtime error: training iteration 1: batch demo 3: ")


def test_train_methods_write_the_same_files(dataset_dir, tmp_path, capsys):
    files = {}
    for method in METHOD_KIND:
        out = tmp_path / method
        irl_only = [] if method == "bc" else ["--batch-size", "2"]
        assert run("train", "--dataset", dataset_dir, "--out", out, "--method", method,
                   "--iterations", "2", *irl_only) == 0
        files[method] = sorted(p.name for p in out.iterdir())
    assert files["ours"] == files["irl_nokin"] == files["bc"] == [
        "checkpoint.ckpt", "report.csv", "resolved_config.json", "timings.csv"]
    assert (tmp_path / "bc" / "timings.csv").read_text().splitlines()[0] == "epoch,seconds"
    kept = capsys.readouterr().out.split("kept epoch ")[1].split(",")[0]
    assert load_checkpoint(tmp_path / "bc" / "checkpoint.ckpt")[2] == int(kept)


@pytest.mark.parametrize("command, extra", [
    ("train", ("--iterations", "0")),
    ("eval", ("--methods", "random", "--samples", "5")),
], ids=["train", "eval"])
def test_workers_flag_accepts_only_1(dataset_dir, tmp_path, capsys, command, extra):
    base = (command, "--dataset", dataset_dir, *extra)
    assert run(*base, "--out", tmp_path / "one", "--workers", "1") == 0
    resolved = json.loads((tmp_path / "one" / "resolved_config.json").read_text())
    assert "workers" not in resolved["config"]
    assert run(*base, "--out", tmp_path / "two", "--workers", "2") == 2
    assert "--workers" in capsys.readouterr().err


def test_train_config_file_with_workers_rejected(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"iterations": 0, "workers": 1}))
    assert run("train", "--dataset", dataset_dir, "--out", tmp_path / "x",
               "--config", cfg) == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("in_file, flag", [(True, "--no-augment"), (False, "--augment")],
                         ids=["no_augment", "augment"])
def test_train_augment_flag_beats_config_file(dataset_dir, tmp_path, in_file, flag):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"iterations": 0, "augment": in_file}))
    out = tmp_path / "t"
    assert run("train", "--dataset", dataset_dir, "--out", out, "--config", cfg, flag) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["config"]["augment"] is (not in_file)


def test_train_nonconvergence_exits_3(dataset_dir, tmp_path, capsys, monkeypatch):
    # one round settles only a map whose neighbour-greedy first policy is
    # already optimal, which a fresh net's reward map is not
    monkeypatch.setattr(mdp, "MAX_ROUNDS", 1)
    rc = run("train", "--dataset", dataset_dir, "--out", tmp_path / "nc",
             "--iterations", "1", "--batch-size", "1")
    assert rc == 3
    assert "training iteration 1: value iteration did not converge" in \
        capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict

def test_predict_outputs_and_mass(dataset_dir, ours_ckpt, tmp_path):
    out = tmp_path / "pred"
    assert run("predict", "--dataset", dataset_dir, "--out", out,
               "--checkpoint", ours_ckpt, "--demo", "0", "--samples", "10") == 0
    for name in ("reward.csv", "reward.pgm", "svf.csv", "svf.pgm",
                 "samples.csv", "summary.json", "resolved_config.json"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    svf = load_map_csv(out / "svf.csv")
    assert abs(svf.sum() - summary["horizon"]) <= 1e-6
    n_lines = (out / "samples.csv").read_text().count("\n")
    assert n_lines == 10 * summary["horizon"] + 1


def test_predict_random_matches_dp_diffusion(dataset_dir, tmp_path):
    out = tmp_path / "rand"
    assert run("predict", "--dataset", dataset_dir, "--out", out,
               "--method", "random", "--demo", "1", "--samples", "0") == 0
    _, test_demos, _ = load_dataset(dataset_dir)
    demo = test_demos[1]
    expected = compute_svf([uniform_policy(demo.world.rows, demo.world.cols)],
                           [demo.start], [demo.horizon])[0]
    written = load_map_csv(out / "svf.csv")
    assert np.array_equal(written, expected)  # %.17g round-trips doubles
    assert not (out / "reward.csv").exists()


def test_predict_terminal_entropy_is_that_of_the_last_forecast_cell(dataset_dir, tmp_path):
    out = tmp_path / "rand"
    assert run("predict", "--dataset", dataset_dir, "--out", out,
               "--method", "random", "--demo", "1", "--samples", "0") == 0
    _, test_demos, _ = load_dataset(dataset_dir)
    demo = test_demos[1]
    # a forecast of `horizon` cells, the start included, ends at its last cell
    last = state_distribution([uniform_policy(demo.world.rows, demo.world.cols)],
                              [demo.start], [demo.horizon])[0]
    p = last[last > 0.0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminal_entropy"] == pytest.approx(float(-(p * np.log(p)).sum()),
                                                        rel=1e-12)


def test_predict_ekf_writes_trajectory(dataset_dir, tmp_path):
    out = tmp_path / "ekf"
    assert run("predict", "--dataset", dataset_dir, "--out", out,
               "--method", "ekf", "--demo", "0") == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    summary = json.loads((out / "summary.json").read_text())
    assert lines[0] == "step,row,col,x,y"
    assert len(lines) == summary["horizon"] + 1


def test_predict_zero_lidar_changes_the_reward(dataset_dir, ours_ckpt, tmp_path):
    plain, ablated = tmp_path / "plain", tmp_path / "ablated"
    assert run("predict", "--dataset", dataset_dir, "--out", plain,
               "--checkpoint", ours_ckpt, "--samples", "0") == 0
    assert run("predict", "--dataset", dataset_dir, "--out", ablated,
               "--checkpoint", ours_ckpt, "--samples", "0", "--zero-lidar") == 0
    a = load_map_csv(plain / "reward.csv")
    b = load_map_csv(ablated / "reward.csv")
    assert not np.array_equal(a, b)
    assert json.loads((ablated / "summary.json").read_text())["zero_lidar"] is True


def test_predict_demo_index_out_of_range(dataset_dir, ours_ckpt, tmp_path, capsys):
    rc = run("predict", "--dataset", dataset_dir, "--out", tmp_path / "x",
             "--checkpoint", ours_ckpt, "--demo", "99")
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_predict_ours_needs_checkpoint(dataset_dir, tmp_path, capsys):
    rc = run("predict", "--dataset", dataset_dir, "--out", tmp_path / "x")
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("other, kind", [("bc", "action_head"), ("irl_nokin", "env_only")])
def test_predict_ours_rejects_checkpoint_of_another_method(dataset_dir, nokin_ckpt, bc_ckpt,
                                                          tmp_path, capsys, other, kind):
    ckpt = {"bc": bc_ckpt, "irl_nokin": nokin_ckpt}[other]
    rc = run("predict", "--dataset", dataset_dir, "--out", tmp_path / "x",
             "--method", "ours", "--checkpoint", ckpt, "--samples", "3")
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"'{kind}'" in err and "'two_stage'" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("method", ["irl_nokin", "bc"])
def test_predict_forecasts_each_trained_net_under_its_own_method(
        dataset_dir, nokin_ckpt, bc_ckpt, tmp_path, method):
    ckpt = {"bc": bc_ckpt, "irl_nokin": nokin_ckpt}[method]
    out = tmp_path / method
    assert run("predict", "--dataset", dataset_dir, "--out", out, "--method", method,
               "--checkpoint", ckpt, "--demo", "1", "--samples", "7", "--seed", "4") == 0
    # the same forecast, planned here straight from the stored net
    _, test_demos, _ = load_dataset(dataset_dir)
    demo = test_demos[1]
    net = load_net(ckpt, METHOD_KIND[method])[0]
    if method == "bc":
        policy = bc_policy(net, demo)
        assert not (out / "reward.csv").exists()
    else:
        reward = forward(net, demo)[0]
        policy = value_iteration([reward])[0]
        assert np.array_equal(load_map_csv(out / "reward.csv"), reward)
    start = demo.start
    svf = compute_svf([policy], [start], [demo.horizon])[0]
    assert np.array_equal(load_map_csv(out / "svf.csv"), svf)
    cells = sample_trajectories([policy], start, demo.horizon, 7,
                                np.random.default_rng(np.random.SeedSequence(4)))[0].ravel()
    samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, dtype=np.int64)
    assert np.array_equal(samples[:, :2], np.stack(np.divmod(np.arange(cells.size),
                                                             demo.horizon), axis=1))
    assert np.array_equal(samples[:, 2] * demo.world.cols + samples[:, 3], cells)
    assert json.loads((out / "summary.json").read_text())["method"] == method


@pytest.mark.parametrize("kind", ["two_stage", "env_only", "action_head"])
def test_forecast_of_a_demo_is_that_of_its_scene(dataset_dir, kind):
    # a forecast reads only the map, the past track and the start cell
    _, test_demos, _ = load_dataset(dataset_dir)
    net = build_net(kind, seed=2)
    by_demo = forecast(net, test_demos)
    by_scene = forecast(net, [Scene(d.world, d.past, d.start) for d in test_demos])
    assert [p.probs.tobytes() for p in by_demo[0]] == [p.probs.tobytes() for p in by_scene[0]]
    if kind == "action_head":
        assert by_demo[1] is None and by_scene[1] is None
    else:
        assert [r.tobytes() for r in by_demo[1]] == [r.tobytes() for r in by_scene[1]]


# ---------------------------------------------------------------------------
# eval

def test_eval_missing_artifacts_listed_together(dataset_dir, tmp_path, capsys):
    rc = run("eval", "--dataset", dataset_dir, "--out", tmp_path / "e",
             "--methods", "ours,bc")
    assert rc == 2
    err = capsys.readouterr().err
    assert "--checkpoint" in err and "--checkpoint-bc" in err


def test_eval_random_and_ekf_rows(dataset_dir, tmp_path):
    out = tmp_path / "ev"
    assert run("eval", "--dataset", dataset_dir, "--out", out,
               "--methods", "ekf,random", "--samples", "30") == 0
    lines = (out / "table.csv").read_text().splitlines()
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    header = lines[0].split(",")
    ekf = dict(zip(header, rows["ekf"]))
    rand = dict(zip(header, rows["random"]))
    assert ekf["nll"] == "N.A." and ekf["nll_se"] == "N.A."
    assert rand["nll"] == f"{math.log(4.0):.17g}"
    assert rand["nll_se"] == "0"
    assert list(rows) == ["ekf", "random"]


# a past track whose first step lasts a single ulp gives a speed near 1e16 m/s,
# finite, so the record loads, and then an EKF covariance that is not PSD
@pytest.mark.parametrize("first_step, why", [
    (lambda t0: (t0, np.nextafter(t0, np.inf)), "EKF covariance is not positive semi-definite")],
    ids=["one_ulp"])
def test_ekf_failure_names_the_demo_in_one_line(tmp_path, capsys, first_step, why):
    data = tmp_path / "ds"
    assert run("generate", "--out", data, "--demos", "8", "--rows", "16", "--cols", "16",
               "--seed", "1", "--split", "0.5") == 0
    record = data / "test" / "demo_00002.bin"
    demo = load_demo(record)
    t = demo.past.t.copy()
    t[:2] = first_step(t[0])
    save_demo(record, dataclasses.replace(demo, past=PastTrack(t=t, xy=demo.past.xy)))
    capsys.readouterr()
    for command in (("eval", "--methods", "ekf,random", "--samples", "10"),
                    ("predict", "--method", "ekf", "--demo", "2")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*command, "--dataset", data, "--out", tmp_path / "out")
        assert rc == 3, command
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"runtime error: ekf, test demo 2: {why}\n"
        # predict, like eval, forecasts before it creates --out
        assert not (tmp_path / "out").exists(), command


def test_record_with_an_infinite_step_speed_exits_2_naming_it(tmp_path, capsys):
    # a first time step of 5e-324 s makes the first step's speed infinite; a
    # PastTrack refuses such a track, so the f64 is patched in the record bytes
    data = tmp_path / "ds"
    assert run("generate", "--out", data, "--demos", "8", "--rows", "16", "--cols", "16",
               "--seed", "1", "--split", "0.5") == 0
    record = data / "test" / "demo_00002.bin"
    at, _ = record_offsets(load_demo(record))
    raw = bytearray(record.read_bytes())
    raw[at:at + 8] = struct.pack("<d", 0.0)
    raw[at + 24:at + 32] = struct.pack("<d", 5e-324)
    record.write_bytes(bytes(raw))
    capsys.readouterr()
    for command in (("eval", "--methods", "ekf,random", "--samples", "10"),
                    ("predict", "--method", "ekf", "--demo", "2"),
                    ("train", "--iterations", "1", "--batch-size", "2")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(*command, "--dataset", data, "--out", tmp_path / "out")
        assert rc == 2, command
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == \
            f"error: {record}: track step 0 implies an infinite speed\n"
    assert not (tmp_path / "out").exists()


def test_eval_methods_flag_beats_config_file(dataset_dir, tmp_path):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"methods": ["ekf", "random"], "samples": 5}))
    out = tmp_path / "ev"
    assert run("eval", "--dataset", dataset_dir, "--out", out, "--config", cfg,
               "--methods", "random") == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["random"]
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["config"] == {"methods": ["random"], "samples": 5, "seed": 0}


def test_eval_full_table_order(dataset_dir, ours_ckpt, nokin_ckpt, bc_ckpt,
                               tmp_path):
    out = tmp_path / "ev"
    assert run("eval", "--dataset", dataset_dir, "--out", out,
               "--checkpoint", ours_ckpt, "--checkpoint-nokin", nokin_ckpt,
               "--checkpoint-bc", bc_ckpt, "--samples", "20") == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        ["ekf", "bc", "random", "irl_nokin", "ours"]
    data = json.loads((out / "table.json").read_text())
    assert len(data["methods"]) == 5


def test_eval_writes_rows_in_table_order(dataset_dir, tmp_path, capsys):
    out = tmp_path / "ev"
    assert run("eval", "--dataset", dataset_dir, "--out", out, "--methods", "random,ekf",
               "--samples", "5") == 0
    lines = (out / "table.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["ekf", "random"]
    data = json.loads((out / "table.json").read_text())
    assert [row["method"] for row in data["methods"]] == ["ekf", "random"]
    printed = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0].strip() for ln in printed[:2]] == ["ekf", "random"]


EVAL_ARGS = ("--samples", "50", "--seed", "7")

# sha256 of table.csv then table.json from the five-method eval below: a
# rollout, a distance, a score or a digit of the export that moves changes it
PINNED_EVAL_TABLE_DIGEST = "52f7d3e5d9e803fee3e98a5d421d87a3dd5a7bea3024641a2319294537794786"


@pytest.fixture(scope="module")
def full_eval(tmp_path_factory, dataset_dir, ours_ckpt, nokin_ckpt, bc_ckpt):
    out = tmp_path_factory.mktemp("eval") / "full"
    assert run("eval", "--dataset", dataset_dir, "--out", out, "--checkpoint", ours_ckpt,
               "--checkpoint-nokin", nokin_ckpt, "--checkpoint-bc", bc_ckpt, *EVAL_ARGS) == 0
    return out


def test_eval_table_is_pinned(full_eval):
    digest = hashlib.sha256()
    for name in ("table.csv", "table.json"):
        digest.update((full_eval / name).read_bytes())
    assert digest.hexdigest() == PINNED_EVAL_TABLE_DIGEST


@pytest.mark.parametrize("methods", ["ours", "random,ours"])
def test_eval_rows_do_not_depend_on_the_other_methods(dataset_dir, ours_ckpt, full_eval,
                                                      tmp_path, methods):
    # the methods of a demo share its uniforms and its scoring pass; each row
    # must still be the one its method scores alone
    out = tmp_path / "ev"
    assert run("eval", "--dataset", dataset_dir, "--out", out, "--checkpoint", ours_ckpt,
               "--methods", methods, *EVAL_ARGS) == 0
    full_csv = {ln.split(",")[0]: ln for ln in
                (full_eval / "table.csv").read_text().splitlines()[1:]}
    full_json = {row["method"]: row for row in
                 json.loads((full_eval / "table.json").read_text())["methods"]}
    lines = (out / "table.csv").read_text().splitlines()[1:]
    rows = json.loads((out / "table.json").read_text())["methods"]
    assert [row["method"] for row in rows] == methods.split(",")
    for line, row in zip(lines, rows):
        assert line == full_csv[row["method"]]
        assert row == full_json[row["method"]]


def test_eval_tables_byte_identical_across_runs(dataset_dir, ours_ckpt, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("eval", "--dataset", dataset_dir, "--out", out,
                   "--checkpoint", ours_ckpt, "--methods", "ours,random",
                   "--samples", "40", "--seed", "9") == 0
    assert (a / "table.csv").read_bytes() == (b / "table.csv").read_bytes()
    assert (a / "table.json").read_bytes() == (b / "table.json").read_bytes()


def test_checkpoint_repeating_a_parameter_name_exits_2(dataset_dir, ours_ckpt, tmp_path, capsys):
    raw = ours_ckpt.read_bytes()
    assert raw.count(b"s1.1.kernel") == 3  # the parameter, then Adam's m and v
    ckpt = tmp_path / "repeat.ckpt"
    ckpt.write_bytes(raw.replace(b"s1.1.kernel", b"s1.0.kernel", 1))
    capsys.readouterr()
    for command in (("predict", "--checkpoint", ckpt),
                    ("eval", "--checkpoint", ckpt, "--methods", "ours"),
                    ("train", "--resume", ckpt, "--iterations", "1")):
        assert run(*command, "--dataset", dataset_dir, "--out", tmp_path / "out") == 2, command
        assert capsys.readouterr().err == \
            f"error: {ckpt}: duplicate parameter 's1.0.kernel' in checkpoint\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ("predict", "--checkpoint"), ("predict", "--method", "bc", "--checkpoint"),
    ("eval", "--methods", "ours", "--checkpoint"), ("train", "--iterations", "1", "--resume")],
    ids=["predict_ours", "predict_bc", "eval", "train_resume"])
def test_non_finite_checkpoint_exits_2_naming_it_and_the_parameter(
        dataset_dir, ours_ckpt, bc_ckpt, tmp_path, capsys, command):
    store, meta, iteration = load_checkpoint(bc_ckpt if "bc" in command else ours_ckpt)
    store.params["s1.0.kernel"][0, 0, 0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, store, meta=meta, iteration=iteration)
    capsys.readouterr()
    assert run(*command, ckpt, "--dataset", dataset_dir, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {ckpt}: checkpoint holds non-finite s1.0.kernel\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ("predict", "--method", "irl_nokin", "--checkpoint"),
    ("train", "--method", "irl_nokin", "--iterations", "1", "--resume")],
    ids=["predict", "train_resume"])
def test_checkpoint_with_a_parameter_the_net_lacks_exits_2_naming_it(
        dataset_dir, nokin_ckpt, tmp_path, capsys, command):
    store, meta, iteration = load_checkpoint(nokin_ckpt)
    for arrays in (store.params, store.m, store.v):
        arrays["junk"] = np.zeros(3)
    ckpt = tmp_path / "junk.ckpt"
    save_checkpoint(ckpt, store, meta=meta, iteration=iteration)
    capsys.readouterr()
    assert run(*command, ckpt, "--dataset", dataset_dir, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == \
        f"error: {ckpt}: checkpoint holds parameters a 'env_only' net does not have: junk\n"
    assert not (tmp_path / "out").exists()


def test_predict_scores_average_to_the_eval_row(dataset_dir, ours_ckpt, nokin_ckpt, bc_ckpt,
                                               tmp_path):
    ckpts = {"ours": ours_ckpt, "irl_nokin": nokin_ckpt, "bc": bc_ckpt}
    assert run("eval", "--dataset", dataset_dir, "--out", tmp_path / "ev",
               "--checkpoint", ours_ckpt, "--checkpoint-nokin", nokin_ckpt,
               "--checkpoint-bc", bc_ckpt, "--samples", "5") == 0
    rows = json.loads((tmp_path / "ev" / "table.json").read_text())["methods"]
    n_test = len(load_dataset(dataset_dir)[1])
    assert n_test == 2 and [row["method"] for row in rows] == list(METHOD_ORDER)
    for row in rows:
        method = row["method"]
        given = ["--checkpoint", ckpts[method]] if method in ckpts else []
        summaries = []
        for i in range(n_test):
            out = tmp_path / f"{method}_{i}"
            assert run("predict", "--dataset", dataset_dir, "--out", out, "--method", method,
                       "--demo", i, "--samples", "0", *given) == 0
            summaries.append(json.loads((out / "summary.json").read_text()))
        columns = ({"hd": "hd"} if method == "ekf" else
                   {"demo_nll": "nll", "terminal_entropy": "terminal_entropy"})
        for key, column in columns.items():
            assert float(np.mean([s[key] for s in summaries])) == row[column], (method, key)


def test_eval_and_predict_accept_checkpoint_with_retired_config_keys(
        dataset_dir, ours_ckpt, tmp_path):
    # Older checkpoints carry the planner settings that are constants now
    # (gamma, epsilon) or gone with the temperature schedule (beta0, tau),
    # "use_kinematics" (which the net's kind says) and, from the thread-pool
    # days, "workers"; older manifests carry the experts' temperature
    # "demo_beta", now their reward scale. None of them is read.
    store, meta, iteration = load_checkpoint(ours_ckpt)
    assert {"gamma", "epsilon", "beta0", "tau", "use_kinematics"}.isdisjoint(meta["config"])
    meta["config"].update(gamma=0.95, epsilon=1e-4, beta0=1.0, tau=50.0, workers=1,
                          use_kinematics=True)
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, store, meta=meta, iteration=iteration)
    legacy_data = tmp_path / "legacy_ds"
    shutil.copytree(dataset_dir, legacy_data)
    manifest = json.loads((legacy_data / "manifest.json").read_text())
    assert "demo_beta" not in manifest["config"]
    manifest["config"]["demo_beta"] = DEMO_BETA
    (legacy_data / "manifest.json").write_text(json.dumps(manifest))
    for ckpt, data, name in ((ours_ckpt, dataset_dir, "now"), (legacy, legacy_data, "legacy")):
        assert run("eval", "--dataset", data, "--out", tmp_path / f"ev_{name}",
                   "--checkpoint", ckpt, "--methods", "ours", "--samples", "10") == 0
        assert run("predict", "--dataset", data, "--out", tmp_path / f"pr_{name}",
                   "--checkpoint", ckpt, "--samples", "5") == 0
        assert run("train", "--dataset", data, "--out", tmp_path / f"tr_{name}",
                   "--iterations", "1", "--batch-size", "2", "--resume", ckpt) == 0
    assert dir_bytes(tmp_path / "ev_legacy") == dir_bytes(tmp_path / "ev_now")
    assert dir_bytes(tmp_path / "pr_legacy") == dir_bytes(tmp_path / "pr_now")
    assert dir_bytes(tmp_path / "tr_legacy", skip=("resolved_config.json", "timings.csv")) \
        == dir_bytes(tmp_path / "tr_now", skip=("resolved_config.json", "timings.csv"))


def test_eval_rejects_checkpoint_of_another_method(dataset_dir, nokin_ckpt, tmp_path,
                                                  capsys):
    rc = run("eval", "--dataset", dataset_dir, "--out", tmp_path / "x",
             "--checkpoint", nokin_ckpt, "--methods", "ours", "--samples", "5")
    assert rc == 2
    err = capsys.readouterr().err
    assert "'env_only'" in err and "'two_stage'" in err


@pytest.mark.parametrize("case", sorted(CORRUPT_META))
def test_eval_corrupt_checkpoint_meta_exits_2(dataset_dir, ours_ckpt, tmp_path, capsys,
                                              case):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_meta_block(ours_ckpt.read_bytes(), CORRUPT_META[case]))
    rc = run("eval", "--dataset", dataset_dir, "--out", tmp_path / "x",
             "--checkpoint", bad, "--methods", "ours", "--samples", "5")
    assert rc == 2
    assert "meta block" in capsys.readouterr().err


def test_eval_checkpoint_without_usable_arch_exits_2(dataset_dir, ours_ckpt, tmp_path,
                                                    capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_meta_block(ours_ckpt.read_bytes(), b'{"arch": [1]}'))
    rc = run("eval", "--dataset", dataset_dir, "--out", tmp_path / "x",
             "--checkpoint", bad, "--methods", "ours", "--samples", "5")
    assert rc == 2
    assert "architecture" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"n_train": None}, {"n_test": None}, {"n_train": -1}, {"n_test": "2"},
    {"n_train": 1.5}, {"n_test": True},
], ids=["no_n_train", "no_n_test", "negative", "string", "float", "bool"])
def test_eval_manifest_with_bad_counts_exits_2(dataset_dir, tmp_path, capsys, edit):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    for key, value in edit.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    rc = run("eval", "--dataset", data, "--out", tmp_path / "x",
             "--methods", "random", "--samples", "5")
    assert rc == 2
    assert next(iter(edit)) in capsys.readouterr().err


def test_eval_unknown_method_rejected(dataset_dir, tmp_path, capsys):
    rc = run("eval", "--dataset", dataset_dir, "--out", tmp_path / "x",
             "--methods", "ours,telepathy")
    assert rc == 2
    assert "telepathy" in capsys.readouterr().err


def test_record_with_one_future_cell_exits_2_naming_it(dataset_dir, tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset_dir, data)
    record = data / "train" / "demo_00000.bin"
    # a Demonstration refuses a one-cell future, so the record is cut in its bytes
    demo = load_demo(record)
    _, at = record_offsets(demo)
    raw = record.read_bytes()
    record.write_bytes(raw[:at] + struct.pack("<I", 1) + raw[at + 4:at + 12]
                       + raw[at + 4 + 8 * demo.horizon:])
    for command in (("train", "--method", "bc", "--iterations", "2"),
                    ("train", "--iterations", "2", "--batch-size", "2"),
                    ("eval", "--methods", "random,ekf"),
                    ("predict", "--method", "random")):
        rc = run(*command, "--dataset", data, "--out", tmp_path / "out")
        assert rc == 2, command
        err = capsys.readouterr().err
        assert err == f"error: {record}: demo future needs at least two cells, got 1\n"
    assert not (tmp_path / "out").exists()
