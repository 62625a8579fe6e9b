"""Grid MDP: hand Bellman fixed points, MC oracle for the SVF DP, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_world
from meirl.errors import ConfigError, ConvergenceError
from meirl.mdp import (ACTION_DELTAS, GridWorld, Policy, actions_from_cells,
                       annealed_softmax, compute_svf,
                       enumerate_trajectory_distribution, sample_trajectories,
                       state_distribution, uniform_policy, value_iteration)


def apply_actions(start, actions, rows, cols):
    """Reference replay: the cell path of an action sequence, each move clipped
    to the grid so that moving off it leaves the state unchanged."""
    r, c = start
    cells = [(r, c)]
    for a in actions:
        dr, dc = ACTION_DELTAS[a]
        r, c = min(max(r + dr, 0), rows - 1), min(max(c + dc, 0), cols - 1)
        cells.append((r, c))
    return np.array(cells, dtype=np.int64)


def mc_svf_naive(probs, start, horizon, n, rng):
    """Pure-loop Monte Carlo visitation estimate; deliberately unvectorized."""
    rows, cols = probs.shape[1:]
    counts = np.zeros((rows, cols))
    u = rng.random((n, horizon - 1))
    cum = np.cumsum(probs, axis=0)
    for i in range(n):
        r, c = start
        counts[r, c] += 1.0
        for t in range(horizon - 1):
            x = u[i, t]
            col = cum[:, r, c]
            a = 0
            while a < 3 and x > col[a]:
                a += 1
            dr, dc = ACTION_DELTAS[a]
            r = min(max(r + dr, 0), rows - 1)
            c = min(max(c + dc, 0), cols - 1)
            counts[r, c] += 1.0
    return counts / n


def random_policy_probs(rng, rows, cols):
    p = rng.random((4, rows, cols)) + 0.05
    return p / p.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# world / policy types

def test_world_validation():
    with pytest.raises(ConfigError):
        make_world(rows=4, cols=9)
    with pytest.raises(ConfigError):
        GridWorld(rows=8, cols=8, resolution=0.0, env=np.zeros((5, 8, 8)))
    with pytest.raises(ConfigError):
        GridWorld(rows=8, cols=8, resolution=1.0, env=np.zeros((4, 8, 8)))
    with pytest.raises(ConfigError):
        GridWorld(rows=8, cols=8, resolution=1.0, env=np.full((5, 8, 8), 1.5))


def test_policy_rows_must_sum_to_one():
    bad = np.full((4, 3, 3), 0.3)
    with pytest.raises(ConfigError):
        Policy(probs=bad)


# ---------------------------------------------------------------------------
# annealed softmax

def test_softmax_equal_values_uniform():
    out = annealed_softmax(np.zeros(4), beta=3.0)
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_known_values():
    out = annealed_softmax(np.array([1.0, 0.0, 0.0, 0.0]), beta=1.0)
    e = math.e
    want = np.array([e / (e + 3), 1 / (e + 3), 1 / (e + 3), 1 / (e + 3)])
    assert np.allclose(out, want, atol=1e-12)
    assert out[0] == pytest.approx(0.4754, abs=5e-5)


def test_softmax_greedy_limit():
    out = annealed_softmax(np.array([0.3, 0.1, -0.4, 0.05]), beta=100.0)
    assert out[0] > 0.999


def test_softmax_beta_zero_uniform(rng):
    out = annealed_softmax(rng.normal(size=4), beta=0.0)
    assert np.allclose(out, 0.25, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(shift=st.floats(-1e3, 1e3), beta=st.floats(0.0, 20.0))
def test_softmax_shift_invariance(shift, beta):
    q = np.array([0.4, -1.2, 0.9, 0.0])
    a = annealed_softmax(q, beta)
    b = annealed_softmax(q + shift, beta)
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# value iteration

def test_vi_uniform_reward_fixed_point():
    reward = np.full((6, 7), -1.0)
    pol = value_iteration(reward, gamma=0.9, epsilon=1e-6, beta=1.0)
    assert np.max(np.abs(pol.value - (-10.0))) < 1e-4


def test_vi_gamma_zero_returns_reward():
    rng = np.random.default_rng(3)
    reward = rng.normal(size=(5, 5))
    pol = value_iteration(reward, gamma=0.0, epsilon=1e-8)
    assert np.allclose(pol.value, reward, atol=1e-12)
    # and every Q row is constant, so the policy is uniform
    assert np.allclose(pol.probs, 0.25, atol=1e-12)


def test_vi_two_cell_line():
    reward = np.array([[0.0, 1.0]])
    pol = value_iteration(reward, gamma=0.5, epsilon=1e-10)
    assert np.allclose(pol.value, [[1.0, 2.0]], atol=1e-8)


def test_vi_nonconvergence_reports_residual():
    reward = np.zeros((8, 8))
    with pytest.raises(ConvergenceError, match="residual"):
        value_iteration(reward, gamma=0.95, epsilon=1e-12, max_sweeps=3)


def test_vi_rejects_bad_args():
    with pytest.raises(ConfigError):
        value_iteration(np.zeros((4, 4)), gamma=1.0)
    with pytest.raises(ConfigError):
        value_iteration(np.zeros((4, 4)), epsilon=0.0)
    with pytest.raises(ConfigError):
        value_iteration(np.full((4, 4), np.nan))


def test_vi_policy_prefers_high_reward_neighbor():
    reward = np.zeros((8, 8))
    reward[4, 6] = 5.0
    pol = value_iteration(reward, gamma=0.9, epsilon=1e-6, beta=5.0)
    # at (4, 5) the best action is right, toward the peak
    assert pol.probs[3, 4, 5] > 0.9


# ---------------------------------------------------------------------------
# state visitation

def test_svf_single_step_is_point_mass():
    pol = uniform_policy(6, 6)
    svf = compute_svf(pol, (2, 3), horizon=1)
    want = np.zeros((6, 6))
    want[2, 3] = 1.0
    assert np.array_equal(svf, want)


def test_svf_always_right_line():
    probs = np.zeros((4, 1, 3))
    probs[3] = 1.0
    pol = Policy(probs=probs)
    svf = compute_svf(pol, (0, 0), horizon=3)
    assert np.allclose(svf, [[1.0, 1.0, 1.0]], atol=1e-12)


def test_svf_mass_equals_horizon(rng):
    pol = Policy(probs=random_policy_probs(rng, 6, 5))
    for horizon in (1, 4, 11):
        svf = compute_svf(pol, (3, 2), horizon)
        assert svf.sum() == pytest.approx(horizon, abs=1e-6)


def test_svf_matches_naive_monte_carlo(rng):
    probs = random_policy_probs(rng, 5, 5)
    pol = Policy(probs=probs)
    dp = compute_svf(pol, (2, 2), horizon=6)
    mc = mc_svf_naive(probs, (2, 2), horizon=6, n=200_000,
                      rng=np.random.default_rng(99))
    assert np.abs(dp - mc).sum() < 0.02


def test_state_distribution_uniform_interior():
    pol = uniform_policy(8, 8)
    mu = state_distribution(pol, (4, 4), steps=1)
    for dr, dc in ACTION_DELTAS:
        assert mu[4 + dr, 4 + dc] == pytest.approx(0.25)
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling

def test_sample_trajectory_seeded_deterministic(rng):
    pol = Policy(probs=random_policy_probs(rng, 6, 6))
    a = sample_trajectories(pol, (3, 3), 10, 1, np.random.default_rng(5))[0]
    b = sample_trajectories(pol, (3, 3), 10, 1, np.random.default_rng(5))[0]
    c = sample_trajectories(pol, (3, 3), 10, 1, np.random.default_rng(6))[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_first_step_frequencies_uniform():
    pol = uniform_policy(9, 9)
    trajs = sample_trajectories(pol, (4, 4), 2, 100_000, np.random.default_rng(11))
    steps = trajs[:, 1] - trajs[:, 0]
    for dr, dc in ACTION_DELTAS:
        freq = np.mean((steps[:, 0] == dr) & (steps[:, 1] == dc))
        assert freq == pytest.approx(0.25, abs=0.005)


def test_sampled_visits_match_dp_svf(rng):
    probs = random_policy_probs(rng, 5, 5)
    pol = Policy(probs=probs)
    trajs = sample_trajectories(pol, (1, 1), 6, 200_000, np.random.default_rng(21))
    counts = np.zeros((5, 5))
    np.add.at(counts, (trajs[:, :, 0].ravel(), trajs[:, :, 1].ravel()), 1.0)
    counts /= len(trajs)
    dp = compute_svf(pol, (1, 1), 6)
    assert np.abs(dp - counts).sum() < 0.02


# ---------------------------------------------------------------------------
# action recovery and replay

def test_action_roundtrip_with_boundary_clipping():
    rows = cols = 5
    actions = [0, 0, 0, 2, 2, 1, 3]  # pushes into the top-left corner first
    cells = apply_actions((1, 1), actions, rows, cols)
    recovered = actions_from_cells(cells, rows, cols)
    assert np.array_equal(apply_actions((1, 1), recovered, rows, cols), cells)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_action_replay_roundtrip_property(seq):
    cells = apply_actions((2, 2), seq, 6, 6)
    rec = actions_from_cells(cells, 6, 6)
    assert np.array_equal(apply_actions((2, 2), rec, 6, 6), cells)


def test_actions_from_cells_rejects_jumps():
    with pytest.raises(ConfigError):
        actions_from_cells(np.array([[0, 0], [2, 2]]), 5, 5)
    with pytest.raises(ConfigError):
        actions_from_cells(np.array([[2, 2], [2, 2]]), 5, 5)  # interior stay


# ---------------------------------------------------------------------------
# enumeration

def test_enumeration_uniform_reward_is_uniform():
    dist = enumerate_trajectory_distribution(np.zeros((3, 3)), (1, 1), horizon=3)
    assert len(dist) == 64
    probs = np.array(list(dist.values()))
    assert np.allclose(probs, 1 / 64, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_single_step_matches_exp_reward():
    reward = np.array([[0.0, 1.0, 0.0],
                       [2.0, 0.0, -1.0],
                       [0.0, 0.5, 0.0]])
    dist = enumerate_trajectory_distribution(reward, (1, 1), horizon=1)
    # successors per action order: up (0,1), down (2,1), left (1,0), right (1,2)
    succ_r = np.array([reward[0, 1], reward[2, 1], reward[1, 0], reward[1, 2]])
    want = np.exp(succ_r) / np.exp(succ_r).sum()
    got = np.array([dist[(a,)] for a in range(4)])
    assert np.allclose(got, want, atol=1e-12)


def test_enumeration_refuses_oversize():
    with pytest.raises(ConfigError, match="16384"):
        enumerate_trajectory_distribution(np.zeros((3, 3)), (1, 1), horizon=7)


def test_enumeration_matches_svf_of_exact_maxent():
    # cross-check: expected visitation under the enumerated distribution equals
    # a direct weighted count over all paths
    rng = np.random.default_rng(8)
    reward = rng.normal(size=(4, 4)) * 0.5
    dist = enumerate_trajectory_distribution(reward, (2, 1), horizon=4)
    visit = np.zeros((4, 4))
    for seq, p in dist.items():
        cells = apply_actions((2, 1), list(seq), 4, 4)
        for r, c in cells:
            visit[r, c] += p
    assert visit.sum() == pytest.approx(5.0, abs=1e-9)  # horizon+1 cells per path
