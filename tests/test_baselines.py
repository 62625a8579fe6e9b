import hashlib
import math
import warnings

import numpy as np
import pytest

from meirl import baselines
from meirl.baselines import (WHEELBASE, bc_policy, ekf_forecast_cells, ekf_predict_trajectory,
                             ekf_run, rasterize_positions, wrap_angle)
from meirl.dataset import GenerateConfig, generate_dataset
from meirl.errors import ConfigError, ConvergenceError
from meirl.kinematics import PastTrack
from meirl.mdp import GridWorld, cells_to_xy, uniform_policy
from meirl.metrics import hausdorff, nll
from meirl.reward_net import build_net
from meirl.synthetic import Demonstration
from meirl.trainer import BcConfig, TrainConfig, bc_train, demo_stack, train


@pytest.fixture
def quiet(monkeypatch):
    """A filter that trusts its model and its measurements almost fully."""
    monkeypatch.setattr(baselines, "PROCESS_VAR", (1e-10,) * 5)
    monkeypatch.setattr(baselines, "MEASUREMENT_VAR", (1e-8, 1e-8))


def circle_track(radius=10.0, speed=2.0, dt=0.1, n=52):
    omega = speed / radius
    t = np.arange(n) * dt
    xy = np.stack([radius * np.sin(omega * t),
                   radius - radius * np.cos(omega * t)], axis=1)
    return PastTrack(t=t, xy=xy)


def line_track(speed=3.0, dt=0.1, n=40, heading=0.0):
    t = np.arange(n) * dt
    d = np.array([math.cos(heading), math.sin(heading)])
    return PastTrack(t=t, xy=np.outer(speed * t, d))


def past_to(cell, speed=3.0, resolution=1.0):
    cx = (cell[1] + 0.5) * resolution
    cy = (cell[0] + 0.5) * resolution
    t = np.array([0.0, 0.1, 0.2])
    xy = np.array([[cx - 0.2 * speed, cy], [cx - 0.1 * speed, cy], [cx, cy]])
    return PastTrack(t=t, xy=xy)


def flat_world(rows=12, cols=12, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    env = np.full((5, rows, cols), 0.5) + rng.normal(scale=noise, size=(5, rows, cols))
    return GridWorld(rows=rows, cols=cols, resolution=1.0, env=env.clip(0.0, 1.0))


def right_demo(world, row, c0=1, n=8, speed=3.0):
    fut = np.array([(row, c0 + k) for k in range(n)], dtype=np.int64)
    return Demonstration(world=world, past=past_to(fut[0], speed), future=fut,
                         expert_speed=speed, seed=0, tag="straight")


# ---------------------------------------------------------------------------
# angle and state plumbing

def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # open at -pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)


def test_state_wraps_heading_and_checks_cov(monkeypatch):
    # 20 s at 0.2 rad/s: the true heading ends at 3.98 rad, past pi
    state, _ = ekf_run(circle_track(radius=10.0, speed=2.0, dt=0.1, n=200))
    assert -math.pi < state[2] <= math.pi
    assert abs(wrap_angle(state[2] - 0.2 * 19.9)) < 0.05
    monkeypatch.setattr(baselines, "INITIAL_VAR", (0.1, 0.1, 0.5, -1.0, 0.1))
    with pytest.raises(ConvergenceError, match="not positive semi-definite"):
        ekf_run(line_track())


def degenerate_track(first_step):
    """line_track with its first step replaced by `first_step` seconds."""
    track = line_track()
    t = track.t.copy()
    t[1] = t[0] + first_step
    return PastTrack(t=t, xy=track.xy)


@pytest.mark.parametrize("first_step, why", [
    (1e-300, "EKF state or covariance is not finite"),  # a speed of 1e299 m/s
    (1e-17, "EKF covariance is not positive semi-definite")])  # a speed of 3e16 m/s
def test_degenerate_track_raises_without_warnings(first_step, why):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=why):
            ekf_run(degenerate_track(first_step))


def test_ekf_init_needs_three_points():
    with pytest.raises(ConfigError):
        ekf_run(PastTrack(t=np.array([0.0, 0.1]), xy=np.zeros((2, 2))))


# sha256 of ekf_run's state and covariance and of ekf_forecast_cells' cells
# for every demo of the benchmark's eval_table dataset: a change to any step
# of the filter or of the dead reckoning changes it
PINNED_EKF_DIGEST = "4c23d7b3541fbda5dff6b49191ec42674571cef4b89cd90cd7850431d5ccfc5d"


def test_ekf_is_pinned():
    demos = sum(generate_dataset(GenerateConfig(
        n_demos=64, split=0.5, seed=1, rows=16, cols=16, layouts=("straight", "curve", "tee"))), [])
    digest = hashlib.sha256()
    for demo in demos:
        for arr in ekf_run(demo.past):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(ekf_forecast_cells(demo), dtype="<i8").tobytes())
        digest.update(b"|")
    assert digest.hexdigest() == PINNED_EKF_DIGEST


# ---------------------------------------------------------------------------
# filtering

def test_straight_track_recovers_speed_and_zero_steering(quiet):
    state, _ = ekf_run(line_track(speed=3.0))
    assert state[3] == pytest.approx(3.0, abs=1e-3)
    assert abs(state[4]) < 1e-6
    assert state[2] == pytest.approx(0.0, abs=1e-6)


def test_angled_track_recovers_heading(quiet):
    state, _ = ekf_run(line_track(speed=2.0, heading=math.pi / 3))
    assert state[2] == pytest.approx(math.pi / 3, abs=1e-4)
    assert state[3] == pytest.approx(2.0, abs=1e-3)


def test_stationary_track_speed_to_zero():
    t = np.arange(30) * 0.1
    state, _ = ekf_run(PastTrack(t=t, xy=np.zeros((30, 2))))
    assert abs(state[3]) < 1e-6


def test_circle_recovers_turn_rate_within_5_percent():
    # radius 10 at speed 2: true tan(delta)/L = 1/R = 0.1
    track = circle_track(radius=10.0, speed=2.0, dt=0.1, n=52)
    state, _ = ekf_run(track)  # 50 corrections
    est = math.tan(state[4]) / WHEELBASE
    assert abs(est - 0.1) / 0.1 < 0.05
    assert state[3] == pytest.approx(2.0, rel=0.05)


def test_covariance_stays_psd_under_noisy_measurements():
    # two line samples seed the filter; 100 far-off measurements follow, and
    # ekf_run checks every predicted and corrected covariance on the way
    rng = np.random.default_rng(5)
    xy = np.vstack([line_track(n=2).xy, rng.normal(scale=3.0, size=(100, 2))])
    _, cov = ekf_run(PastTrack(t=np.arange(102) * 0.1, xy=xy))
    assert float(np.linalg.eigvalsh(cov).min()) >= -1e-8


# ---------------------------------------------------------------------------
# dead reckoning

def test_prediction_zero_steering_is_straight():
    pred = ekf_predict_trajectory(np.array([1.0, 2.0, 0.0, 2.0, 0.0]), 5, 0.5)
    expected = np.stack([1.0 + 2.0 * 0.5 * np.arange(1, 6), np.full(5, 2.0)], axis=1)
    assert np.allclose(pred, expected, atol=1e-12)


def test_prediction_zero_speed_stays_put():
    pred = ekf_predict_trajectory(np.array([1.0, 2.0, 0.7, 0.0, 0.3]), 4, 0.1)
    assert np.allclose(pred, [[1.0, 2.0]] * 4, atol=1e-12)


def test_prediction_arc_matches_analytic_circle():
    delta = math.atan(0.1 * WHEELBASE)  # radius 10
    pred = ekf_predict_trajectory(np.array([0.0, 0.0, 0.0, 2.0, delta]), 30, 0.05)
    ts = np.arange(1, 31) * 0.05
    analytic = np.stack([10 * np.sin(0.2 * ts), 10 - 10 * np.cos(0.2 * ts)], axis=1)
    assert np.abs(pred - analytic).max() < 1e-6


# ---------------------------------------------------------------------------
# rasterization and the demo-level adapter

def test_rasterize_nearest_cell():
    w = flat_world(rows=8, cols=8)
    cells = rasterize_positions(np.array([[1.2, 3.7], [0.05, 0.05]]), w)
    assert cells.tolist() == [[3, 1], [0, 0]]


def test_rasterize_clips_to_grid():
    w = flat_world(rows=8, cols=8)
    cells = rasterize_positions(np.array([[-2.0, 99.0], [7.9, 5.9]]), w)
    assert cells.tolist() == [[7, 0], [5, 7]]
    with pytest.raises(ConfigError):
        rasterize_positions(np.zeros(4), w)


def test_ekf_forecast_on_straight_demo_within_one_cell(quiet):
    w = flat_world(rows=12, cols=16)
    demo = right_demo(w, row=5, c0=2, n=10, speed=3.0)
    cells = ekf_forecast_cells(demo)
    assert cells.shape == (10, 2)
    hd = hausdorff(cells_to_xy(cells, 1.0), cells_to_xy(demo.future, 1.0))
    assert hd <= 1.0 + 1e-9  # one cell at resolution 1


# ---------------------------------------------------------------------------
# behavior cloning

@pytest.fixture(scope="module")
def right_dataset():
    return [right_demo(flat_world(seed=s), row=2 + s, n=8) for s in range(6)]


@pytest.fixture(scope="module")
def trained_bc(right_dataset):
    net, rows, _, _ = bc_train(right_dataset, BcConfig(epochs=150, learning_rate=3e-3, seed=0))
    return net, rows


def test_bc_initial_loss_near_ln4(right_dataset):
    _, rows, _, _ = bc_train(right_dataset, BcConfig(epochs=1, seed=0))
    assert rows[0]["train_loss"] == pytest.approx(math.log(4.0), abs=0.1)


def test_bc_learns_always_right(trained_bc, right_dataset):
    net, _ = trained_bc
    for demo in right_dataset[:3]:
        policy = bc_policy(net, demo)
        for r, c in demo.future[:-1]:
            assert policy.probs[3, r, c] > 0.9


def test_bc_early_stops(trained_bc):
    _, rows = trained_bc
    assert 0 < len(rows) < 150


def test_bc_policy_rows_sum_to_one(trained_bc, right_dataset):
    net, _ = trained_bc
    probs = bc_policy(net, right_dataset[0]).probs
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)


def test_bc_zero_epochs_keeps_near_uniform_init(right_dataset):
    net, rows, timings, (kept, _) = bc_train(right_dataset, BcConfig(epochs=0, seed=0))
    assert rows == [] and timings == [] and kept == 0
    probs = bc_policy(net, right_dataset[0]).probs
    assert np.abs(probs - 0.25).max() < 0.1


def test_bc_and_irl_consume_identical_stacks(right_dataset):
    demo = right_dataset[0]
    irl_net = build_net("two_stage", seed=4)
    bc_net = build_net("action_head", seed=4)
    a = demo_stack(irl_net, demo)
    b = demo_stack(bc_net, demo)
    assert a.tobytes() == b.tobytes()


def test_bc_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        bc_train([], BcConfig())


def test_bc_config_validation():
    with pytest.raises(ConfigError):
        BcConfig(val_split=1.0)
    with pytest.raises(ConfigError):
        BcConfig(epochs=-1)
    with pytest.raises(ConfigError):
        BcConfig(patience=0)
    with pytest.raises(ConfigError, match="learning rate"):
        BcConfig(learning_rate=math.nan)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        BcConfig(seed=-1)


# ---------------------------------------------------------------------------
# random and the ablation

def test_random_policy_uniform_and_ln4(right_dataset):
    w = flat_world()
    policy = uniform_policy(w.rows, w.cols)
    assert np.all(policy.probs == 0.25)
    assert nll(policy, right_dataset[0]) == math.log(4.0)


def test_irl_no_kinematics_strips_the_second_stage(right_dataset):
    cfg = TrainConfig(iterations=2, batch_size=2)
    net, _, reports, _ = train(right_dataset[:3], cfg, kind="env_only")
    assert net.kind == "env_only"
    assert len(reports) == 2
    fresh = build_net("env_only", seed=cfg.seed)
    changed = any(not np.array_equal(a, fresh.parameters()[n])
                  for n, a in net.parameters().items())
    assert changed
