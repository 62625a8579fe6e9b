import math

import numpy as np
import pytest

from meirl.baselines import (BcConfig, EkfNoise, EkfState, WHEELBASE, bc_policy,
                             bc_train, ekf_forecast_cells, ekf_init,
                             ekf_predict_trajectory, ekf_run, ekf_update,
                             random_policy, rasterize_positions,
                             wrap_angle)
from meirl.errors import ConfigError, ConvergenceError
from meirl.kinematics import PastTrack
from meirl.mdp import GridWorld, cells_to_xy
from meirl.metrics import hausdorff, nll
from meirl.reward_net import build_net
from meirl.synthetic import Demonstration
from meirl.trainer import TrainConfig, demo_stack, train

QUIET = EkfNoise(process=(1e-10,) * 5, measurement=(1e-8, 1e-8))


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


def test_state_wraps_heading_and_checks_cov():
    s = EkfState(x=0, y=0, theta=4.0, v=1.0, delta=0.0, cov=np.eye(5))
    assert -math.pi < s.theta <= math.pi
    with pytest.raises(ConfigError):
        EkfState(x=0, y=0, theta=0, v=1, delta=0, cov=np.eye(4))
    bad = np.eye(5)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ConvergenceError):
        EkfState(x=0, y=0, theta=0, v=1, delta=0, cov=bad)
    with pytest.raises(ConvergenceError):
        EkfState(x=0, y=0, theta=0, v=1, delta=0, cov=-np.eye(5))


def test_ekf_init_needs_three_points():
    with pytest.raises(ConfigError):
        ekf_init(PastTrack(t=np.array([0.0, 0.1]), xy=np.zeros((2, 2))))


def test_ekf_update_validation():
    s = EkfState(x=0, y=0, theta=0, v=1, delta=0, cov=np.eye(5))
    with pytest.raises(ConfigError):
        ekf_update(s, np.zeros(3), 0.1)
    with pytest.raises(ConfigError):
        ekf_update(s, np.zeros(2), 0.0)


# ---------------------------------------------------------------------------
# filtering

def test_straight_track_recovers_speed_and_zero_steering():
    state = ekf_run(line_track(speed=3.0), QUIET)
    assert state.v == pytest.approx(3.0, abs=1e-3)
    assert abs(state.delta) < 1e-6
    assert state.theta == pytest.approx(0.0, abs=1e-6)


def test_angled_track_recovers_heading():
    state = ekf_run(line_track(speed=2.0, heading=math.pi / 3), QUIET)
    assert state.theta == pytest.approx(math.pi / 3, abs=1e-4)
    assert state.v == pytest.approx(2.0, abs=1e-3)


def test_stationary_track_speed_to_zero():
    t = np.arange(30) * 0.1
    state = ekf_run(PastTrack(t=t, xy=np.zeros((30, 2))))
    assert abs(state.v) < 1e-6


def test_circle_recovers_turn_rate_within_5_percent():
    # radius 10 at speed 2: true tan(delta)/L = 1/R = 0.1
    track = circle_track(radius=10.0, speed=2.0, dt=0.1, n=52)
    state = ekf_run(track)  # default noise, 50 corrections
    est = math.tan(state.delta) / WHEELBASE
    assert abs(est - 0.1) / 0.1 < 0.05
    assert state.v == pytest.approx(2.0, rel=0.05)


def test_covariance_stays_psd_under_noisy_measurements():
    rng = np.random.default_rng(5)
    state = ekf_init(line_track(n=3))
    for _ in range(100):
        z = rng.normal(scale=3.0, size=2)
        state = ekf_update(state, z, 0.1)  # construction re-checks PSD
    assert float(np.linalg.eigvalsh(state.cov).min()) >= -1e-8


# ---------------------------------------------------------------------------
# dead reckoning

def test_prediction_zero_steering_is_straight():
    s = EkfState(x=1.0, y=2.0, theta=0.0, v=2.0, delta=0.0, cov=np.eye(5))
    pred = ekf_predict_trajectory(s, 5, 0.5)
    expected = np.stack([1.0 + 2.0 * 0.5 * np.arange(1, 6), np.full(5, 2.0)], axis=1)
    assert np.allclose(pred, expected, atol=1e-12)


def test_prediction_zero_speed_stays_put():
    s = EkfState(x=1.0, y=2.0, theta=0.7, v=0.0, delta=0.3, cov=np.eye(5))
    pred = ekf_predict_trajectory(s, 4, 0.1)
    assert np.allclose(pred, [[1.0, 2.0]] * 4, atol=1e-12)


def test_prediction_arc_matches_analytic_circle():
    delta = math.atan(0.1 * WHEELBASE)  # radius 10
    s = EkfState(x=0.0, y=0.0, theta=0.0, v=2.0, delta=delta, cov=np.eye(5) * 0.01)
    pred = ekf_predict_trajectory(s, 30, 0.05)
    ts = np.arange(1, 31) * 0.05
    analytic = np.stack([10 * np.sin(0.2 * ts), 10 - 10 * np.cos(0.2 * ts)], axis=1)
    assert np.abs(pred - analytic).max() < 1e-6


def test_prediction_validation():
    s = EkfState(x=0, y=0, theta=0, v=1, delta=0, cov=np.eye(5))
    with pytest.raises(ConfigError):
        ekf_predict_trajectory(s, 0, 0.1)
    with pytest.raises(ConfigError):
        ekf_predict_trajectory(s, 3, -0.1)


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


def test_ekf_forecast_on_straight_demo_within_one_cell():
    w = flat_world(rows=12, cols=16)
    demo = right_demo(w, row=5, c0=2, n=10, speed=3.0)
    cells = ekf_forecast_cells(demo, QUIET)
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
    return bc_train(right_dataset, BcConfig(epochs=150, learning_rate=3e-3, seed=0))


def test_bc_initial_loss_near_ln4(right_dataset):
    _, rows = bc_train(right_dataset, BcConfig(epochs=1, seed=0))
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
    net, rows = bc_train(right_dataset, BcConfig(epochs=0, seed=0))
    assert rows == []
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


# ---------------------------------------------------------------------------
# random and the ablation

def test_random_policy_uniform_and_ln4(right_dataset):
    w = flat_world()
    policy = random_policy(w)
    assert np.all(policy.probs == 0.25)
    assert nll(policy, right_dataset[0]) == math.log(4.0)


def test_irl_no_kinematics_strips_the_second_stage(right_dataset):
    cfg = TrainConfig(iterations=2, batch_size=2, gamma=0.9, epsilon=1e-3)
    net, _, reports, _ = train(right_dataset[:3], cfg, kind="env_only")
    assert net.kind == "env_only"
    assert len(reports) == 2
    fresh = build_net("env_only", seed=cfg.seed)
    changed = any(not np.array_equal(a, fresh.parameters()[n])
                  for n, a in net.parameters().items())
    assert changed
