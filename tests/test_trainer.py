import hashlib
import json
import math

import numpy as np
import pytest

from conftest import with_meta_block
from meirl.checkpoint import load_checkpoint
from meirl.config import from_dict
from meirl.errors import ConfigError, ConvergenceError
from meirl import mdp, reward_net, trainer
from meirl.kinematics import PastTrack
from meirl.mdp import ACTION_DELTAS, GridWorld, value_iteration
from meirl.metrics import nll
from meirl.reward_net import backward, build_net, forward
from meirl.synthetic import (Demonstration, Scene, generate_demonstrations,
                             generate_world)
from meirl.cli import forecast
from meirl.trainer import (BC_REPORT_COLUMNS, REPORT_COLUMNS, BcConfig, TrainConfig, bc_train,
                           demo_svf, train, train_step, write_report, write_timings)


def grid(rows=10, cols=10, seed=3):
    rng = np.random.default_rng(seed)
    return GridWorld(rows=rows, cols=cols, resolution=1.0,
                     env=rng.random((5, rows, cols)))


def past_to(cell, speed=3.0, resolution=1.0):
    """Three-sample straight approach from the left ending at the cell center."""
    cx = (cell[1] + 0.5) * resolution
    cy = (cell[0] + 0.5) * resolution
    t = np.array([0.0, 0.1, 0.2])
    xy = np.array([[cx - 0.2 * speed, cy], [cx - 0.1 * speed, cy], [cx, cy]])
    return PastTrack(t=t, xy=xy)


def demo_from_future(world, future, speed=3.0):
    future = np.asarray(future, dtype=np.int64)
    return Demonstration(world=world, past=past_to(future[0], speed), future=future,
                         expert_speed=speed, seed=0, tag="straight")


def straight_demo(world, row=5, c0=2, n=6, speed=3.0):
    return demo_from_future(world, [(row, c0 + k) for k in range(n)], speed)


def greedy_rollout(policy, start, horizon):
    cells = [tuple(start)]
    rows, cols = policy.shape
    for _ in range(horizon - 1):
        r, c = cells[-1]
        a = int(np.argmax(policy.probs[:, r, c]))
        dr, dc = ACTION_DELTAS[a]
        cells.append((min(max(r + dr, 0), rows - 1), min(max(c + dc, 0), cols - 1)))
    return np.array(cells, dtype=np.int64)


def params_snapshot(net):
    return {k: v.copy() for k, v in net.parameters().items()}


def max_abs(grads):
    return max(float(np.abs(g).max()) for g in grads.values())


# ---------------------------------------------------------------------------
# one temperature and demo counts

def test_train_step_does_not_depend_on_the_iteration():
    # no schedule: the planner runs at the same temperature on every iteration
    w = grid(seed=11)
    net = build_net("two_stage", seed=7)
    batch = [straight_demo(w), straight_demo(w, row=3, c0=1, n=8)]
    first, first_row = train_step(net, batch, 1)
    late, late_row = train_step(net, batch, 300)
    assert set(first) == set(late)
    for name in first:
        assert np.array_equal(first[name], late[name])
    assert (first_row["iteration"], late_row["iteration"]) == (1, 300)
    assert {**first_row, "iteration": 300} == late_row


@pytest.mark.parametrize("kind", ["two_stage", "env_only"])
def test_forecasts_plan_at_the_training_temperature(kind):
    # the held-out likelihood of a forecast is the one training reports
    w = grid(seed=11)
    net = build_net(kind, seed=7)
    batch = [straight_demo(w), straight_demo(w, row=3, c0=1, n=8)]
    _, row = train_step(net, batch, 1)
    policies, _ = forecast(net, batch)
    assert row["nll"] == float(np.mean([nll(policy, demo)
                                        for policy, demo in zip(policies, batch)]))


def test_demo_svf_mass_equals_horizon():
    w = grid()
    demo = straight_demo(w, n=7)
    mu = demo_svf(demo)
    assert mu.sum() == 7.0
    assert mu[5, 2] == 1.0 and mu[5, 8] == 1.0


def test_demo_svf_counts_revisits():
    w = grid()
    demo = demo_from_future(w, [(5, 2), (5, 3), (5, 2), (5, 3)])
    mu = demo_svf(demo)
    assert mu[5, 2] == 2.0 and mu[5, 3] == 2.0
    assert mu.sum() == 4.0


# ---------------------------------------------------------------------------
# gradient content

def test_gradient_vanishes_at_fixed_point():
    """A demo that is exactly the greedy rollout of the net's own policy, with
    the reward head scaled up until the softmax is numerically deterministic,
    gives a zero visitation gap and hence zero parameter gradient."""
    w = grid(seed=3)
    net = build_net("two_stage", seed=5)
    net.stage2[-1].kernel *= 1e5
    net.stage2[-1].bias *= 1e5
    past = past_to((5, 2))
    reward, _ = forward(net, Scene(w, past, (5, 2)))
    policy = value_iteration([reward])[0]
    future = greedy_rollout(policy, (5, 2), 8)
    demo = Demonstration(world=w, past=past, future=future, expert_speed=3.0,
                         seed=0, tag="straight")
    grads, report = train_step(net, [demo], iteration=1)
    assert report["svf_l1"] < 1e-8
    assert max_abs(grads) < 1e-8


def test_train_step_batch_of_one_matches_manual_pipeline():
    w = grid(seed=11)
    net = build_net("two_stage", seed=7)
    demo = straight_demo(w)
    reward, acts = forward(net, demo)
    policy = value_iteration([reward])[0]
    from meirl.mdp import compute_svf
    diff = demo_svf(demo) - compute_svf([policy], [(5, 2)], [demo.horizon])[0]
    manual = backward(net, acts, -diff)

    grads, report = train_step(net, [demo], iteration=2)
    assert set(grads) == set(manual)
    for name in grads:
        assert np.array_equal(grads[name], manual[name])
    assert report["iteration"] == 2
    assert report["nll"] == nll(policy, demo)
    assert report["vi_sweeps"] == float(policy.sweeps)
    assert report["svf_l1"] == float(np.abs(diff).sum())


def test_visitation_gap_positive_on_far_demo_cells():
    # at beta 1 the policy spreads out, so a demo cell far from the start keeps
    # most of its demonstration mass: the ascent direction raises its reward
    w = grid(rows=12, cols=12, seed=4)
    net = build_net("two_stage", seed=9)
    demo = demo_from_future(w, [(6, c) for c in range(2, 10)])
    policy = value_iteration([forward(net, demo)[0]], gamma=0.95)[0]
    from meirl.mdp import compute_svf
    diff = demo_svf(demo) - compute_svf([policy], [(6, 2)], [demo.horizon])[0]
    assert diff[6, 9] > 0.5


def test_directional_derivative_matches_probe():
    """Freeze the policy-side visitation, perturb every parameter along a random
    direction, and compare the analytic directional derivative of the linear
    loss -sum(diff * reward) with a central difference."""
    w = grid(rows=12, cols=12, seed=2)
    net = build_net("two_stage", seed=13)
    demo = demo_from_future(w, [(6, c) for c in range(2, 10)])

    reward0, acts0 = forward(net, demo)
    policy = value_iteration([reward0], gamma=0.9)[0]
    from meirl.mdp import compute_svf
    diff = demo_svf(demo) - compute_svf([policy], [(6, 2)], [demo.horizon])[0]

    def loss():
        return -float((diff * forward(net, demo)[0]).sum())

    analytic = backward(net, acts0, -diff)
    rng = np.random.default_rng(0)
    params = net.parameters()
    direction = {k: rng.normal(size=v.shape) for k, v in params.items()}
    scale = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {k: d / scale for k, d in direction.items()}

    h = 1e-6
    for k in params:
        params[k] += h * direction[k]
    up = loss()
    for k in params:
        params[k] -= 2 * h * direction[k]
    down = loss()
    for k in params:
        params[k] += h * direction[k]

    fd = (up - down) / (2 * h)
    dd = sum(float((analytic[k] * direction[k]).sum()) for k in params)
    assert abs(fd - dd) < 0.01 * max(abs(fd), 1e-12)


def conv_calls(monkeypatch):
    """Count the conv layer passes the reward net makes."""
    calls = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(reward_net, "conv2d_forward",
                        counted("forward", reward_net.conv2d_forward))
    monkeypatch.setattr(reward_net, "conv2d_backward",
                        counted("backward", reward_net.conv2d_backward))
    return calls


@pytest.mark.parametrize("kind, layers", [("two_stage", 7), ("env_only", 4)])
def test_training_demo_runs_each_layer_forward_once(monkeypatch, kind, layers):
    calls = conv_calls(monkeypatch)
    net = build_net(kind, seed=1)
    train_step(net, [straight_demo(grid(seed=6))], iteration=1)
    assert calls == {"forward": layers, "backward": layers}


def test_bc_demo_runs_each_layer_forward_once(monkeypatch):
    calls = conv_calls(monkeypatch)
    demos = [straight_demo(grid(seed=6))]
    bc_train(demos, BcConfig(epochs=0))  # one validation pass only
    assert calls == {"forward": 7, "backward": 0}
    bc_train(demos, BcConfig(epochs=1, patience=1))  # validation, one training demo, validation
    assert calls == {"forward": 7 + 21, "backward": 7}


def test_non_finite_reward_names_the_batch_position(monkeypatch):
    w = grid(seed=6)
    batch = [straight_demo(w, row=r, c0=1, n=5) for r in (2, 5, 7)]
    real_forward = trainer.forward

    def forward(net, demo):
        reward, acts = real_forward(net, demo)
        return (reward * np.nan if demo is batch[1] else reward), acts

    monkeypatch.setattr(trainer, "forward", forward)
    with pytest.raises(ConvergenceError,
                       match="batch demo 1: reward map contains non-finite values"):
        train_step(build_net("two_stage", seed=1), batch, iteration=1)


def test_non_finite_gradient_stops_before_the_update(monkeypatch):
    real_backward = trainer.backward
    updates = []

    def backward(net, acts, grad_out):
        grads = real_backward(net, acts, grad_out)
        grads["s2.0.bias"][0] = np.finfo(np.float64).max  # finite; two overflow the sum
        return grads

    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "update_parameters", lambda *a: updates.append(a))
    with pytest.raises(ConvergenceError, match="training iteration 1: summed gradient "
                                               "is not finite in s2.0.bias"):
        train(small_dataset(), quick_config())
    assert updates == []


def test_bc_non_finite_gradient_stops_before_the_update(monkeypatch):
    real_backward = trainer.backward
    updates = []

    def backward(net, acts, grad_out):
        grads = real_backward(net, acts, grad_out)
        grads["s2.0.bias"][0] = np.finfo(np.float64).max  # finite; two overflow the sum
        return grads

    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "update_parameters", lambda *a: updates.append(a))
    with pytest.raises(ConvergenceError,
                       match="epoch 1: summed gradient is not finite in s2.0.bias"):
        bc_train(small_dataset(), BcConfig(epochs=2))
    assert updates == []


@pytest.mark.parametrize("fit, where", [
    (lambda: train(small_dataset(), quick_config()), "training iteration 1: batch demo 1"),
    (lambda: bc_train(small_dataset(), BcConfig(epochs=2)), "epoch 1: training demo 1")],
    ids=["irl", "bc"])
def test_non_finite_demo_gradient_names_its_position(monkeypatch, fit, where):
    real_backward = trainer.backward
    calls = []

    def backward(net, acts, grad_out):
        grads = real_backward(net, acts, grad_out)
        calls.append(None)
        if len(calls) == 2:
            grads["s1.0.kernel"][0, 0, 0, 0] = np.nan
        return grads

    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "update_parameters", lambda *a: pytest.fail("updated"))
    with pytest.raises(ConvergenceError) as caught:
        fit()
    assert str(caught.value) == f"{where}: gradient is not finite in s1.0.kernel"


# with no validation split, forward runs over the three demos once for the
# initial validation, then per epoch once to train and once to validate
@pytest.mark.parametrize("call, where", [(2, "epoch 0: validation demo 1"),
                                         (5, "epoch 1: training demo 1"),
                                         (9, "epoch 1: validation demo 2")])
def test_bc_non_finite_logits_name_the_epoch_and_demo(monkeypatch, call, where):
    real_forward = trainer.forward
    calls = []

    def forward(net, demo):
        calls.append(demo)
        logits, acts = real_forward(net, demo)
        return (logits * np.nan if len(calls) == call else logits), acts

    monkeypatch.setattr(trainer, "forward", forward)
    with pytest.raises(ConvergenceError,
                       match=f"^{where}: action logits contain non-finite values$"):
        bc_train(small_dataset(), BcConfig(epochs=2, val_split=0.0))


def test_bc_too_small_to_split_validates_on_its_training_demos():
    # 2 demos at val_split 0.8 would leave none to fit, so none is held out
    # and the run is that of val_split 0
    demos = small_dataset()[:2]
    held, rows, _, kept = bc_train(demos, BcConfig(epochs=2, val_split=0.8))
    whole, rows_whole, _, kept_whole = bc_train(demos, BcConfig(epochs=2, val_split=0.0))
    assert len(rows) == 2 and rows == rows_whole and kept == kept_whole
    for name, p in held.parameters().items():
        assert p.tobytes() == whole.parameters()[name].tobytes()


@pytest.mark.parametrize("fit, first", [("irl", "iteration"), ("bc", "epoch")])
def test_a_run_writes_its_report_and_timings(tmp_path, fit, first):
    if fit == "irl":
        _, _, rows, timings = train(small_dataset(), quick_config(iterations=2),
                                    out_dir=tmp_path)
        columns = REPORT_COLUMNS
    else:
        _, rows, timings, _ = bc_train(small_dataset(), BcConfig(epochs=2), out_dir=tmp_path)
        columns = BC_REPORT_COLUMNS
    write_report(rows, tmp_path / "want_report.csv", columns)
    write_timings(timings, tmp_path / "want_timings.csv", counter=first)
    for name in ("report", "timings"):
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"want_{name}.csv").read_bytes()
    assert (tmp_path / "timings.csv").read_text().splitlines()[0] == f"{first},seconds"


def test_bc_checkpoint_holds_the_kept_epoch(tmp_path):
    demos = small_dataset()
    net, rows, timings, (kept, best) = bc_train(
        demos, BcConfig(epochs=6, patience=3, learning_rate=3e-3, seed=1), out_dir=tmp_path)
    assert len(rows) == 6 and kept == 4  # the last epoch is not the best one
    assert best == rows[kept - 1]["val_loss"] == min(row["val_loss"] for row in rows)
    assert [row["epoch"] for row in timings] == [1, 2, 3, 4, 5, 6]
    store, meta, iteration = load_checkpoint(tmp_path / "checkpoint.ckpt")
    assert iteration == kept and store.step == len(rows)
    assert sorted(meta) == ["adam", "arch", "config", "iteration"]
    for name, p in net.parameters().items():
        assert store.params[name].tobytes() == p.tobytes()
    # the kept weights are those of a run that stops at the kept epoch
    short, _, _, _ = bc_train(demos, BcConfig(epochs=kept, patience=3, learning_rate=3e-3,
                                              seed=1))
    for name, p in short.parameters().items():
        assert store.params[name].tobytes() == p.tobytes()


def test_env_only_gradient_ignores_past_speed():
    w = grid(seed=8)
    future = [(5, c) for c in range(2, 8)]
    slow = demo_from_future(w, future, speed=2.0)
    fast = demo_from_future(w, future, speed=8.0)
    net = build_net("env_only", seed=2)
    g_slow, _ = train_step(net, [slow], iteration=1)
    g_fast, _ = train_step(net, [fast], iteration=1)
    for name in g_slow:
        assert np.array_equal(g_slow[name], g_fast[name])


def test_train_step_empty_batch_rejected():
    net = build_net("two_stage", seed=0)
    with pytest.raises(ConfigError):
        train_step(net, [], iteration=1)


def test_action_head_net_rejected_by_irl_step():
    w = grid()
    net = build_net("action_head", seed=0)
    with pytest.raises(ConfigError):
        train_step(net, [straight_demo(w)], iteration=1)


# ---------------------------------------------------------------------------
# the full loop

def small_dataset():
    w = grid(seed=21)
    return [straight_demo(w, row=3, c0=1, n=6, speed=2.0),
            straight_demo(w, row=6, c0=2, n=5, speed=4.0),
            demo_from_future(w, [(2, 2), (3, 2), (4, 2), (5, 2)], speed=3.0)]


def quick_config(**kw):
    base = dict(iterations=3, batch_size=2, learning_rate=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_is_deterministic():
    demos = small_dataset()
    net_a, _, rep_a, _ = train(demos, quick_config())
    net_b, _, rep_b, _ = train(demos, quick_config())
    assert rep_a == rep_b
    pa, pb = net_a.parameters(), net_b.parameters()
    for name in pa:
        assert np.array_equal(pa[name], pb[name])


def test_train_updates_the_net_in_place():
    demos = small_dataset()
    net, store, _, _ = train(demos, quick_config(iterations=2))
    for name, arr in net.parameters().items():
        assert arr is store.params[name]


def test_train_zero_iterations_leaves_init(tmp_path):
    demos = small_dataset()
    net, _, reports, timings = train(demos, quick_config(iterations=0),
                                     out_dir=tmp_path)
    fresh = build_net("two_stage", seed=0)
    for name, arr in fresh.parameters().items():
        assert np.array_equal(arr, net.parameters()[name])
    assert reports == [] and timings == []
    _, _, it = load_checkpoint(tmp_path / "checkpoint.ckpt")
    assert it == 0


def test_train_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        train([], quick_config())


@pytest.mark.parametrize("fit", [lambda demos: train(demos, quick_config()),
                                 lambda demos: bc_train(demos, BcConfig(epochs=1))],
                         ids=["irl", "bc"])
def test_one_cell_future_is_refused_by_position(monkeypatch, fit):
    # a one-cell future has no transition to score: the Demonstration refuses
    # it where it is built, so neither fitting path runs a forward pass on it
    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran on a dataset holding a one-cell future")

    monkeypatch.setattr(trainer, "forward", no_forward)
    demos = small_dataset()
    with pytest.raises(ConfigError, match=r"^demo future needs at least two cells, got 1$"):
        fit(demos[:1] + [demo_from_future(demos[1].world, demos[1].future[:1])] + demos[2:])


def test_checkpoint_cadence(tmp_path):
    train(small_dataset(), quick_config(iterations=5, checkpoint_every=2),
          out_dir=tmp_path)
    assert (tmp_path / "checkpoint_00002.ckpt").is_file()
    assert (tmp_path / "checkpoint_00004.ckpt").is_file()
    assert not (tmp_path / "checkpoint_00005.ckpt").exists()
    _, _, it = load_checkpoint(tmp_path / "checkpoint.ckpt")
    assert it == 5


def test_resume_reproduces_uninterrupted_run(tmp_path):
    demos = small_dataset()
    net_full, _, rep_full, _ = train(demos, quick_config(iterations=4))

    train(demos, quick_config(iterations=2), out_dir=tmp_path)
    net_res, _, rep_res, _ = train(demos, quick_config(iterations=2),
                                   resume=tmp_path / "checkpoint.ckpt")

    assert [r["iteration"] for r in rep_full] == [1, 2, 3, 4]
    assert [r["iteration"] for r in rep_res] == [3, 4]
    for a, b in zip(rep_full[2:], rep_res):
        assert a == b
    pf, pr = net_full.parameters(), net_res.parameters()
    for name in pf:
        assert np.array_equal(pf[name], pr[name])


# sha256 of the parameters after 2 iterations, a checkpoint with Adam's
# beta1, beta2 and eps in its meta block, and 2 resumed iterations, as
# computed before those three became constants. Re-pinned when each flat conv
# row went from 2p to p junk columns (ROADMAP 3(a)), which moves the kernel
# gradients, and so the parameters, in their last bits
PINNED_RESUME_DIGEST = "91600ba3e190c2a7de740f41d7e342c940825ff4406dbed600a92b7fbc70100e"


def test_checkpoint_with_adam_constants_resumes_bitwise(tmp_path):
    demos = small_dataset()
    train(demos, quick_config(iterations=2), out_dir=tmp_path)
    path = tmp_path / "checkpoint.ckpt"
    raw = path.read_bytes()
    _, meta, _ = load_checkpoint(path)
    assert sorted(meta["adam"]) == ["learning_rate", "step"]
    meta["adam"].update(beta1=0.9, beta2=0.999, eps=1e-8)
    older = with_meta_block(raw, json.dumps(meta, sort_keys=True).encode("utf-8"))
    assert len(older) == len(raw) + len(', "beta1": 0.9, "beta2": 0.999, "eps": 1e-08')
    path.write_bytes(older)
    net, _, _, _ = train(demos, quick_config(iterations=2), resume=path)
    digest = hashlib.sha256()
    for name, arr in net.parameters().items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_RESUME_DIGEST


# sha256 of bc_train's report rows, kept epoch and parameters after 2 epochs on
# six generated 16x16 demos, computed while the leaky ReLU pair still selected
# with np.where and conv2d_backward formed every input gradient
PINNED_BC_DIGEST = "9bc398615f0edc370a14a2cc7ed2d805302471855f689cd0d01617bebdeb5709"


def test_bc_training_is_pinned():
    requests = [dict(world=generate_world(seed=s, rows=16, cols=16, layout=layout),
                     speed=speed, seed=s)
                for s, (layout, speed) in enumerate([("straight", 2.0), ("curve", 5.0),
                                                     ("tee", 3.0), ("cross", 6.0),
                                                     ("curve", 2.5), ("tee", 4.5)])]
    demos = generate_demonstrations(requests)
    # validated on the training demos, so both epochs improve and the
    # parameters pinned are the trained ones
    net, rows, _, kept = bc_train(demos, BcConfig(epochs=2, learning_rate=3e-3, val_split=0.0,
                                                  seed=1))
    assert len(rows) == 2 and kept[0] == 2
    digest = hashlib.sha256(json.dumps([rows, kept]).encode("utf-8"))
    for name, arr in net.parameters().items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_BC_DIGEST


def test_resume_kind_mismatch_rejected(tmp_path):
    train(small_dataset(), quick_config(iterations=1), out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint.ckpt"
    with pytest.raises(ConfigError, match="'two_stage' net but the run asks for 'env_only'") as e:
        train(small_dataset(), quick_config(iterations=1), resume=ckpt, kind="env_only")
    assert str(e.value).startswith(f"{ckpt}: ")


def test_augmented_training_runs():
    w = grid(seed=21)  # square grid, rotations apply
    demo = straight_demo(w)
    _, _, reports, _ = train([demo], quick_config(iterations=1, batch_size=4,
                                                  augment=True))
    assert len(reports) == 1


def test_nonconvergent_vi_reports_iteration(monkeypatch):
    # one round settles only a map whose neighbour-greedy first policy is
    # already optimal, which a fresh net's reward map is not
    monkeypatch.setattr(mdp, "MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match="training iteration 1: value iteration "
                                               "did not converge in 1 rounds"):
        train(small_dataset(), quick_config(iterations=1))


# ---------------------------------------------------------------------------
# reports on disk

def test_write_report_round_trip(tmp_path):
    _, _, reports, timings = train(small_dataset(), quick_config(iterations=2))
    path = tmp_path / "report.csv"
    write_report(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == reports[0]["nll"]  # %.17g survives the round trip
    write_timings(timings, tmp_path / "timings.csv")
    tlines = (tmp_path / "timings.csv").read_text().splitlines()
    assert tlines[0] == "iteration,seconds" and len(tlines) == 3


def test_report_csv_byte_deterministic(tmp_path):
    _, _, rep_a, _ = train(small_dataset(), quick_config(iterations=2))
    _, _, rep_b, _ = train(small_dataset(), quick_config(iterations=2))
    write_report(rep_a, tmp_path / "a.csv")
    write_report(rep_b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=-1)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError, match="checkpoint_every must be nonnegative"):
        TrainConfig(checkpoint_every=-5)
    TrainConfig(checkpoint_every=0)  # only the final checkpoint


@pytest.mark.parametrize("field", ["learning_rate"])
@pytest.mark.parametrize("value", [0.0, math.nan])
def test_config_refuses_a_zero_or_nan_rate(field, value):
    with pytest.raises(ConfigError, match="must be positive"):
        TrainConfig(**{field: value})


def test_config_from_dict():
    cfg = from_dict(TrainConfig, {"iterations": 5, "batch_size": 2})
    assert cfg.iterations == 5 and cfg.batch_size == 2
    with pytest.raises(ConfigError, match="stepsize"):
        from_dict(TrainConfig, {"stepsize": 0.1})
    with pytest.raises(ConfigError, match="workers"):  # retired with the thread pool
        from_dict(TrainConfig, {"workers": 1})
    with pytest.raises(ConfigError, match="use_kinematics"):  # the net's kind says it
        from_dict(TrainConfig, {"use_kinematics": False})
    # the planner's discount and tolerance are constants, and the temperature
    # schedule is gone
    for key in ("gamma", "epsilon", "beta0", "tau"):
        with pytest.raises(ConfigError, match=key):
            from_dict(TrainConfig, {key: 0.5})
