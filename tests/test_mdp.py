"""Grid MDP: hand Bellman fixed points, MC oracle for the SVF DP, enumeration."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (BOOL_MASKS, enumerate_trajectory_distribution, make_world,
                      reference_sample_trajectories)
from meirl.errors import ConfigError, ConvergenceError
from meirl import mdp
from meirl.mdp import (ACTION_DELTAS, N_ACTIONS, GridWorld, Policy,
                       actions_from_cells, compute_svf, flat_transition_table,
                       neighbors, sample_trajectories, softmax, state_distribution,
                       uniform_policy, value_iteration)


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


def sweep_reference(reward, gamma, beta):
    """Reference: plain max-Bellman sweeps from V = 0, run until the values stop
    changing (at most 3000 sweeps, past where gamma^k of any start error
    underflows the values' precision), then the softmax over beta * Q, the
    policy at temperature 1/beta, written out here rather than taken from the
    planner."""
    rows, cols = reward.shape
    next_cell = flat_transition_table(rows, cols).reshape(4, rows, cols)
    value = np.zeros((rows, cols))
    for _ in range(3000):
        new_value = (reward[None] + gamma * value.reshape(-1)[next_cell]).max(axis=0)
        if np.array_equal(new_value, value):
            break
        value = new_value
    q = reward[None] + gamma * value.reshape(-1)[next_cell]
    z = np.exp(beta * (q - q.max(axis=0, keepdims=True)))
    return value, z / z.sum(axis=0, keepdims=True)


def bellman_residual(plan, reward, gamma):
    """|V - max_a(r + gamma V(next))| per cell, over max(1, |V|)."""
    rows, cols = reward.shape
    next_cell = flat_transition_table(rows, cols).reshape(4, rows, cols)
    best = (reward[None] + gamma * plan.value.reshape(-1)[next_cell]).max(axis=0)
    return np.abs(plan.value - best) / np.maximum(1.0, np.abs(plan.value))


def peak_map(rows=8, cols=8):
    """Zero reward but 1.0 at (0, 0). The first policy sends (0, 2), whose
    neighbours all have reward 0, up into the wall, where it stays at value 0;
    after round 1, (0, 1) is worth more than 0, so (0, 2) switches left: the
    map provably needs a second round."""
    reward = np.zeros((rows, cols))
    reward[0, 0] = 1.0
    return reward


def svf_one_demo(probs, start, horizon):
    """Reference: per-demo visitation, one bincount per action and step."""
    rows, cols = probs.shape[1:]
    flat_next = flat_transition_table(rows, cols)
    mu = np.zeros(rows * cols)
    mu[start[0] * cols + start[1]] = 1.0
    total = np.zeros(rows * cols)
    for t in range(horizon):
        total += mu
        if t < horizon - 1:
            out = np.zeros(rows * cols)
            for a in range(4):
                out += np.bincount(flat_next[a], weights=mu * probs[a].reshape(-1),
                                   minlength=rows * cols)
            mu = out
    return total.reshape(rows, cols)


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


@pytest.mark.parametrize("resolution", [math.inf, -math.inf, math.nan, -1.0])
def test_world_resolution_must_be_finite_and_positive(resolution):
    with pytest.raises(ConfigError, match="finite and positive"):
        GridWorld(rows=8, cols=8, resolution=resolution, env=np.zeros((5, 8, 8)))


@settings(max_examples=80, deadline=None)
@given(BOOL_MASKS)
def test_neighbors_equal_a_bounds_checked_loop(mask):
    rows, cols = mask.shape
    expected = np.zeros((4, rows, cols), dtype=bool)
    for a, (dr, dc) in enumerate(ACTION_DELTAS):
        for r in range(rows):
            for c in range(cols):
                nr, nc = r + dr, c + dc
                expected[a, r, c] = 0 <= nr < rows and 0 <= nc < cols and mask[nr, nc]
    got = neighbors(mask)
    assert got.dtype == bool
    assert np.array_equal(got, expected)


def test_policy_rows_must_sum_to_one():
    bad = np.full((4, 3, 3), 0.3)
    with pytest.raises(ConfigError):
        Policy(probs=bad)
    # the row-sum tolerance is 1e-9 absolute, with no relative slack on top
    off = np.full((4, 3, 3), 0.25)
    off[0, 1, 1] += 5e-6
    with pytest.raises(ConfigError, match="within 1e-9"):
        Policy(probs=off)
    off[0, 1, 1] = 0.25 + 5e-10
    Policy(probs=off)
    off[0, 1, 1] = np.nan
    with pytest.raises(ConfigError):
        Policy(probs=off)
    # rows that sum to one through a negative entry would give a decreasing CDF
    neg = np.full((4, 3, 3), 0.25)
    neg[0, 2, 2], neg[1, 2, 2] = -0.25, 0.75
    with pytest.raises(ConfigError, match="nonnegative"):
        Policy(probs=neg)


def env_with_inf():
    env = np.zeros((5, 8, 8))
    env[2, 3, 3] = np.inf
    return env


@pytest.mark.parametrize("call, message", [
    (lambda: GridWorld(rows=8, cols=8, resolution=1.0, env=env_with_inf()),
     "env channels contain non-finite values"),
    (lambda: Policy(probs=np.full((3, 4, 4), 1 / 3)),
     "policy probs must be (4, rows, cols), got (3, 4, 4)"),
    (lambda: Policy(probs=np.full((4, 4), 0.25)), "policy probs must be (4, rows, cols), got (4, 4)"),
    (lambda: sample_trajectories([uniform_policy(8, 8)], (2, 2), 0, 3, np.random.default_rng(0)),
     "horizon must be >= 1, got 0"),
    (lambda: sample_trajectories([uniform_policy(8, 8)], (2, 2), 5, 0, np.random.default_rng(0)),
     "sample count must be >= 1, got 0"),
    (lambda: sample_trajectories([uniform_policy(8, 8)], (8, 2), 5, 3, np.random.default_rng(0)),
     "cell (8, 2) outside 8x8 grid"),
    (lambda: sample_trajectories([uniform_policy(8, 8), uniform_policy(9, 8), uniform_policy(8, 8)],
                                 (2, 2), 5, 3, np.random.default_rng(0)),
     "policies sampled together must share one grid shape, got [(8, 8), (9, 8)]"),
    (lambda: sample_trajectories([], (2, 2), 5, 3, np.random.default_rng(0)),
     "need at least one policy to sample"),
    (lambda: actions_from_cells(np.array([1, 2, 3]), 8, 8), "cell path must be (n, 2), got (3,)"),
    (lambda: actions_from_cells(np.zeros((2, 3)), 8, 8), "cell path must be (n, 2), got (2, 3)"),
], ids=["world_inf_env", "policy_3_actions", "policy_2d", "sample_horizon_0", "sample_n_0",
        "sample_start_off_grid", "sample_mixed_grids", "sample_no_policies", "path_1d",
        "path_3_columns"])
def test_malformed_input_is_refused(call, message):
    with pytest.raises(ConfigError) as e:
        call()
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# softmax

def test_softmax_equal_values_uniform():
    out = softmax(np.zeros(4))
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_known_values():
    out = softmax(np.array([1.0, 0.0, 0.0, 0.0]))
    e = math.e
    want = np.array([e / (e + 3), 1 / (e + 3), 1 / (e + 3), 1 / (e + 3)])
    assert np.allclose(out, want, atol=1e-12)
    assert out[0] == pytest.approx(0.4754, abs=5e-5)


def test_softmax_greedy_limit():
    out = softmax(100.0 * np.array([0.3, 0.1, -0.4, 0.05]))
    assert out[0] > 0.999


@settings(max_examples=50, deadline=None)
@given(shift=st.floats(-1e3, 1e3), scale=st.floats(0.0, 20.0))
def test_softmax_shift_invariance(shift, scale):
    q = scale * np.array([0.4, -1.2, 0.9, 0.0])
    a = softmax(q)
    b = softmax(q + shift)
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# value iteration

def test_vi_uniform_reward_fixed_point():
    reward = np.full((6, 7), -1.0)
    pol = value_iteration([reward], gamma=0.9)[0]
    assert np.max(np.abs(pol.value - (-10.0))) < 1e-12


def test_vi_gamma_zero_returns_reward():
    rng = np.random.default_rng(3)
    reward = rng.normal(size=(5, 5))
    pol = value_iteration([reward], gamma=0.0)[0]
    assert np.allclose(pol.value, reward, atol=1e-12)
    # and every Q row is constant, so the policy is uniform
    assert np.allclose(pol.probs, 0.25, atol=1e-12)


def test_vi_two_cell_line():
    reward = np.array([[0.0, 1.0]])
    pol = value_iteration([reward], gamma=0.5)[0]
    assert np.allclose(pol.value, [[1.0, 2.0]], atol=1e-12)


def test_vi_nonconvergence_reports_the_round_cap(monkeypatch):
    assert value_iteration([peak_map()], gamma=0.95)[0].sweeps >= 2
    monkeypatch.setattr(mdp, "MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match=r"did not converge in 1 rounds at batch "
                                               r"positions \[0\] \(\d+ cells still"):
        value_iteration([peak_map()], gamma=0.95)


def test_vi_rejects_bad_args():
    with pytest.raises(ConfigError):
        value_iteration([np.zeros((4, 4))], gamma=1.0)
    with pytest.raises(ConfigError):
        value_iteration([np.full((4, 4), np.nan)])


def test_vi_policy_prefers_high_reward_neighbor():
    reward = np.zeros((8, 8))
    reward[4, 6] = 5.0
    pol = value_iteration([5.0 * reward], gamma=0.9)[0]
    # at (4, 5) the best action is right, toward the peak
    assert pol.probs[3, 4, 5] > 0.9


def test_vi_converges_on_offset_maps_with_exact_ties():
    # values near 1e9 carry rounding noise near 1e-7, so a switch margin that
    # does not scale with |Q| lets noise swap actions back and forth on maps
    # whose Q values tie to within it (the jittered maps), and on maps whose
    # actions tie exactly (whole-valued and uniform ones) it must not switch
    gamma = 0.95
    rng = np.random.default_rng(5)
    rewards = np.concatenate([
        5e7 + rng.normal(size=(12, 16, 16)) * 1e-7,
        5e7 + rng.integers(0, 2, size=(3, 16, 16)),
        np.full((1, 16, 16), 5e7)])
    plans = value_iteration(rewards, gamma=gamma)
    for b, plan in enumerate(plans):
        assert plan.sweeps <= 50
        assert bellman_residual(plan, rewards[b], gamma).max() <= 1e-9
        (alone,) = value_iteration(rewards[b:b + 1], gamma=gamma)
        assert np.array_equal(plan.value, alone.value)
        assert np.array_equal(plan.probs, alone.probs)
    assert plans[-1].sweeps == 1


# ---------------------------------------------------------------------------
# the batch axis

@st.composite
def planning_batches(draw):
    """A (B, rows, cols) reward stack with a start cell and horizon per
    position, and a reward scale s for the whole batch. Some positions are
    rounded to whole numbers, so many of their actions tie exactly, and scale
    0 ties them all."""
    n = draw(st.integers(1, 5))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    gamma = draw(st.sampled_from((0.0, 0.5, 0.9, 0.95)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array(draw(st.lists(st.sampled_from((0.0, 1e-3, 1.0, 30.0)),
                                   min_size=n, max_size=n)))
    whole = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rewards = rng.normal(size=(n, rows, cols)) * scale[:, None, None]
    rewards[whole] = np.round(rewards[whole])
    starts = [tuple(int(v) for v in rng.integers(0, (rows, cols))) for _ in range(n)]
    horizons = draw(st.lists(st.integers(1, 25), min_size=n, max_size=n))
    s = draw(st.sampled_from((0.0, 1.0, 2.5, 50.0)))
    return rewards, starts, horizons, gamma, s


@settings(max_examples=40, deadline=None)
@given(batch=planning_batches())
def test_batched_planner_equals_each_single_demo_slice(batch):
    rewards, starts, horizons, gamma, s = batch
    plans = value_iteration(s * rewards, gamma=gamma)
    svf = compute_svf(plans, starts, horizons)
    ends = [1] + [h + 1 for h in horizons[1:]]  # mixed, one of them the start cell alone
    last = state_distribution(plans, starts, ends)
    assert len(plans) == len(rewards) and svf.shape == last.shape == rewards.shape
    for b in range(len(rewards)):
        (alone,) = value_iteration(s * rewards[b:b + 1], gamma=gamma)
        assert np.array_equal(plans[b].value, alone.value)
        assert np.array_equal(plans[b].probs, alone.probs)
        assert plans[b].sweeps == alone.sweeps >= 1
        assert np.array_equal(svf[b], compute_svf([alone], starts[b:b + 1], horizons[b:b + 1])[0])
        assert np.array_equal(last[b], state_distribution([alone], starts[b:b + 1],
                                                          ends[b:b + 1])[0])
        assert last[b].sum() == pytest.approx(1.0, abs=1e-12)
        # V is a Bellman fixed point, and both V and the policy equal the
        # long-run sweep reference's: planning on s * r is planning on r at
        # temperature 1/s, because the max-Bellman operator is homogeneous
        assert bellman_residual(plans[b], s * rewards[b], gamma).max() <= 1e-9
        value, probs = sweep_reference(rewards[b], gamma, beta=s)
        value = s * value
        assert np.all(np.abs(plans[b].value - value) <= 1e-9 * np.maximum(1.0, np.abs(value)))
        assert np.abs(plans[b].probs - probs).max() <= 1e-9
        assert np.array_equal(svf[b], svf_one_demo(plans[b].probs, starts[b], horizons[b]))
        # each position's visitation mass is its own horizon
        assert svf[b].sum() == pytest.approx(horizons[b], abs=1e-9)
    assert plans.sweeps == sum(p.sweeps for p in plans)


@settings(max_examples=40, deadline=None)
@given(batch=planning_batches())
def test_batched_policies_are_distributions(batch):
    rewards, _, _, gamma, s = batch
    for plan in value_iteration(s * rewards, gamma=gamma):
        assert np.all(plan.probs >= 0.0)
        assert np.max(np.abs(plan.probs.sum(axis=0) - 1.0)) <= 1e-12


def test_batch_positions_freeze_at_their_own_sweep():
    # an all-zero map ties every action, so its first policy is already
    # stable; the peak map needs a second round
    rewards = np.stack([peak_map(6, 6), np.zeros((6, 6))])
    plans = value_iteration(rewards, gamma=0.9)
    assert plans[1].sweeps == 1 < plans[0].sweeps
    assert plans.sweeps == plans[0].sweeps + 1
    (alone,) = value_iteration(rewards[:1], gamma=0.9)
    assert np.array_equal(plans[0].probs, alone.probs) and plans[0].sweeps == alone.sweeps


def test_vi_errors_name_the_batch_positions(monkeypatch):
    rewards = np.zeros((3, 8, 8))
    rewards[1, 0, 0] = np.inf
    with pytest.raises(ConfigError, match=r"batch positions \[1\]"):
        value_iteration(rewards)
    rewards = np.zeros((3, 8, 8))
    rewards[2] = 1e308  # finite, but its values overflow
    with pytest.raises(ConvergenceError, match=r"non-finite values at batch positions \[2\]"), \
            np.errstate(over="ignore", invalid="ignore"):
        value_iteration(rewards, gamma=0.9)
    rewards = np.stack([np.zeros((8, 8)), peak_map(), peak_map()])
    monkeypatch.setattr(mdp, "MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match=r"batch positions \[1, 2\]"):
        value_iteration(rewards, gamma=0.95)


def test_mixed_grid_shapes_are_a_config_error():
    with pytest.raises(ConfigError, match=r"\(8, 8\), \(8, 9\)"):
        value_iteration([np.zeros((8, 8)), np.zeros((8, 9))])
    with pytest.raises(ConfigError, match=r"\(4, 6, 6\), \(4, 6, 7\)"):
        compute_svf([uniform_policy(6, 6), uniform_policy(6, 7)], [(0, 0), (0, 0)], [2, 2])
    with pytest.raises(ConfigError, match="batch stack"):
        value_iteration(np.zeros((8, 8)))


def test_svf_batch_arguments_must_line_up():
    pols = [uniform_policy(6, 6)] * 2
    with pytest.raises(ConfigError, match="2 start cells and horizons"):
        compute_svf(pols, [(0, 0)], [2, 2])
    with pytest.raises(ConfigError, match=r"batch positions \[1\]"):
        compute_svf(pols, [(0, 0), (1, 1)], [2, 0])


def test_state_distribution_names_its_horizons_in_errors():
    pols = [uniform_policy(6, 6)] * 2
    with pytest.raises(ConfigError, match="2 start cells and horizons"):
        state_distribution(pols, [(0, 0)], [2, 2])
    with pytest.raises(ConfigError, match=re.escape(
            "horizon must be >= 1, got [0] at batch positions [1]")):
        state_distribution(pols, [(0, 0), (1, 1)], [1, 0])


# a fixed batch of softmax plans, pinned bitwise: every position's visit
# counts and its distribution at its horizon's last cell
PINNED_FORWARD_PASS_DIGEST = "5c04a5e4f648a2752f1324f2c0531e6b580b296aec756c58331b74a72382a1c7"


def test_visit_counts_and_terminal_distributions_are_pinned():
    rng = np.random.default_rng(23)
    plans = value_iteration(3.0 * rng.normal(size=(6, 9, 11)))
    starts = [(0, 0), (4, 5), (8, 10), (2, 9), (0, 3), (7, 1)]
    horizons = [1, 25, 7, 16, 3, 40]
    digest = hashlib.sha256()
    digest.update(compute_svf(plans, starts, horizons).tobytes())
    digest.update(state_distribution(plans, starts, horizons).tobytes())
    assert digest.hexdigest() == PINNED_FORWARD_PASS_DIGEST


# ---------------------------------------------------------------------------
# state visitation

def test_svf_single_step_is_point_mass():
    pol = uniform_policy(6, 6)
    svf = compute_svf([pol], [(2, 3)], [1])[0]
    want = np.zeros((6, 6))
    want[2, 3] = 1.0
    assert np.array_equal(svf, want)


def test_svf_always_right_line():
    probs = np.zeros((4, 1, 3))
    probs[3] = 1.0
    pol = Policy(probs=probs)
    svf = compute_svf([pol], [(0, 0)], [3])[0]
    assert np.allclose(svf, [[1.0, 1.0, 1.0]], atol=1e-12)


def test_svf_mass_equals_horizon(rng):
    pol = Policy(probs=random_policy_probs(rng, 6, 5))
    for horizon in (1, 4, 11):
        svf = compute_svf([pol], [(3, 2)], [horizon])[0]
        assert svf.sum() == pytest.approx(horizon, abs=1e-6)


def test_svf_matches_naive_monte_carlo(rng):
    probs = random_policy_probs(rng, 5, 5)
    pol = Policy(probs=probs)
    dp = compute_svf([pol], [(2, 2)], [6])[0]
    mc = mc_svf_naive(probs, (2, 2), horizon=6, n=200_000,
                      rng=np.random.default_rng(99))
    assert np.abs(dp - mc).sum() < 0.02


@pytest.mark.parametrize("start", [(0, 0), (2, 3), (4, 1)])
def test_state_distribution_of_a_deterministic_policy_is_its_rollouts_last_cell(start):
    rng = np.random.default_rng(6)
    probs = np.zeros((N_ACTIONS, 5, 7))
    np.put_along_axis(probs, rng.integers(N_ACTIONS, size=(1, 5, 7)), 1.0, axis=0)
    pol = Policy(probs=probs)
    lasts = []
    for h in range(1, 7):
        lasts.append(sample_trajectories([pol], start, h, 1, rng)[0, 0, -1])
        want = np.zeros(35)
        want[lasts[-1]] = 1.0
        assert np.array_equal(state_distribution([pol], [start], [h])[0], want.reshape(5, 7))
    # horizon 1 is the start cell, and no two horizons end alike, so a length
    # off by one cannot pass
    assert lasts[0] == start[0] * 7 + start[1] and len(set(lasts)) == 6


def test_state_distribution_uniform_interior():
    pol = uniform_policy(8, 8)
    (mu,) = state_distribution([pol], [(4, 4)], horizons=[2])
    for dr, dc in ACTION_DELTAS:
        assert mu[4 + dr, 4 + dc] == pytest.approx(0.25)
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling

def test_sample_trajectory_seeded_deterministic(rng):
    pol = Policy(probs=random_policy_probs(rng, 6, 6))
    a = sample_trajectories([pol], (3, 3), 10, 1, np.random.default_rng(5))[0, 0]
    b = sample_trajectories([pol], (3, 3), 10, 1, np.random.default_rng(5))[0, 0]
    c = sample_trajectories([pol], (3, 3), 10, 1, np.random.default_rng(6))[0, 0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def sampler_policy(kind, rows, cols, seed):
    """Action distributions of one `kind` on a rows x cols grid: Dirichlet
    rows, Dirichlet rows with random actions zeroed, or one-hot rows."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(4, 0.5), size=(rows, cols))
    if kind == "sparse":
        probs *= rng.random((rows, cols, 4)) < 0.5
        probs[probs.sum(axis=2) == 0.0, rng.integers(4)] = 1.0
        probs /= probs.sum(axis=2, keepdims=True)
    elif kind == "one_hot":
        probs = np.eye(4)[rng.integers(4, size=(rows, cols))]
    return Policy(probs=probs.transpose(2, 0, 1))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["dirichlet", "sparse", "one_hot"]), rows=st.integers(1, 9),
       cols=st.integers(1, 9), start_on=st.sampled_from(["any", "corner", "border"]),
       horizon=st.integers(1, 40), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
@example(kind="dirichlet", rows=16, cols=16, start_on="any", horizon=25, n=1000, seed=7)
@example(kind="sparse", rows=9, cols=9, start_on="corner", horizon=40, n=1000, seed=8)
def test_sampler_equals_the_per_step_reference_bitwise(kind, rows, cols, start_on, horizon,
                                                       n, seed):
    policy = sampler_policy(kind, rows, cols, seed)
    pick = np.random.default_rng(seed + 1)
    r, c = int(pick.integers(rows)), int(pick.integers(cols))
    if start_on == "corner":
        r, c = (0, rows - 1)[r % 2], (0, cols - 1)[c % 2]
    elif start_on == "border":
        r = (0, rows - 1)[r % 2]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_trajectories([policy], (r, c), horizon, n, got_rng)[0]
    want = reference_sample_trajectories(policy, (r, c), horizon, n, want_rng)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (n, horizon)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n, horizon", [(1, 1), (1, 17), (1000, 1), (1000, 17)])
def test_policies_sampled_together_each_draw_their_solo_rollouts(m, n, horizon):
    # every policy reads the one block of uniforms, so each gets bitwise the
    # rollouts it draws alone, and the generator ends where a solo call leaves it
    kinds = ("one_hot", "dirichlet", "sparse", "dirichlet")[:m]
    policies = [sampler_policy(kind, 7, 9, seed=10 * m + k) for k, kind in enumerate(kinds)]
    start = (0, 4)
    got_rng = np.random.default_rng(31)
    got = sample_trajectories(policies, start, horizon, n, got_rng)
    assert got.dtype == np.int64 and got.shape == (m, n, horizon)
    for policy, rollouts in zip(policies, got):
        solo_rng, want_rng = np.random.default_rng(31), np.random.default_rng(31)
        solo = sample_trajectories([policy], start, horizon, n, solo_rng)[0]
        want = reference_sample_trajectories(policy, start, horizon, n, want_rng)
        assert np.array_equal(solo, want)
        assert np.array_equal(rollouts, want)
        assert got_rng.bit_generator.state == solo_rng.bit_generator.state
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_first_step_frequencies_uniform():
    pol = uniform_policy(9, 9)
    trajs = sample_trajectories([pol], (4, 4), 2, 100_000, np.random.default_rng(11))[0]
    assert np.all(trajs[:, 0] == 4 * 9 + 4)
    steps = np.stack(np.divmod(trajs[:, 1], 9), axis=1) - (4, 4)
    for dr, dc in ACTION_DELTAS:
        freq = np.mean((steps[:, 0] == dr) & (steps[:, 1] == dc))
        assert freq == pytest.approx(0.25, abs=0.005)


def test_sampled_visits_match_dp_svf(rng):
    probs = random_policy_probs(rng, 5, 5)
    pol = Policy(probs=probs)
    trajs = sample_trajectories([pol], (1, 1), 6, 200_000, np.random.default_rng(21))[0]
    counts = np.bincount(trajs.ravel(), minlength=25).reshape(5, 5) / len(trajs)
    dp = compute_svf([pol], [(1, 1)], [6])[0]
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
    with pytest.raises(ConfigError, match="step 0 from"):
        actions_from_cells(np.array([[0, 0], [2, 2]]), 5, 5)
    with pytest.raises(ConfigError, match=r"step 1 from \(2, 2\) to \(3, 3\)"):
        actions_from_cells(np.array([[2, 1], [2, 2], [3, 3]]), 5, 5)  # diagonal
    with pytest.raises(ConfigError, match=r"step 1 from \(2, 2\) to \(2, 2\)"):
        actions_from_cells(np.array([[1, 2], [2, 2], [2, 2]]), 5, 5)  # interior stay


@pytest.mark.parametrize("cell", [(-1, 2), (2, 5), (5, 0)])
def test_actions_from_cells_names_the_off_grid_cell(cell):
    with pytest.raises(ConfigError, match=re.escape(f"cell {cell} outside 5x5")):
        actions_from_cells(np.array([[2, 2], [2, 3], cell]), 5, 5)


@pytest.mark.parametrize("cell, action", [((0, 0), 0), ((0, 2), 0), ((4, 4), 1),
                                          ((2, 0), 2), ((4, 0), 1), ((3, 4), 3)])
def test_a_border_stay_is_the_first_action_that_stays(cell, action):
    assert actions_from_cells(np.array([cell, cell]), 5, 5).tolist() == [action]


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


# ---------------------------------------------------------------------------
# one planner call per batch, not per demo

def _count_calls(monkeypatch, module, name):
    """Batch sizes of each call to `name` as `module` sees it."""
    sizes = []
    real = getattr(module, name)

    def counted(first, *args, **kwargs):
        sizes.append(len(first))
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return sizes


def test_training_generation_and_eval_plan_once_per_batch(monkeypatch, tmp_path):
    from meirl import cli, synthetic, trainer
    from meirl.dataset import EXPERT_CHUNK, GenerateConfig, generate_dataset, load_dataset
    from meirl.reward_net import build_net

    expert = _count_calls(monkeypatch, synthetic, "value_iteration")
    train, test = generate_dataset(GenerateConfig(
        n_demos=EXPERT_CHUNK + 3, rows=12, cols=12, split=0.5, horizon_max=16))
    assert expert == [EXPERT_CHUNK, 3]

    vi = _count_calls(monkeypatch, trainer, "value_iteration")
    svf = _count_calls(monkeypatch, trainer, "compute_svf")
    trainer.train_step(build_net("two_stage"), train[:5], 1)
    assert vi == [5] and svf == [5]

    data = tmp_path / "data"
    assert cli.main(["generate", "--out", str(data), "--demos", "8", "--rows", "12",
                     "--cols", "12", "--split", "0.5", "--horizon-max", "16"]) == 0
    for method in ("ours", "irl_nokin"):
        assert cli.main(["train", "--dataset", str(data), "--out", str(tmp_path / method),
                         "--method", method, "--iterations", "1", "--batch-size", "2"]) == 0
    n_test = len(load_dataset(data)[1])
    forecasts = _count_calls(monkeypatch, cli, "value_iteration")
    terminal = _count_calls(monkeypatch, cli, "state_distribution")
    scored = _count_calls(monkeypatch, cli, "mean_sampled_hd")
    assert cli.main(["eval", "--dataset", str(data), "--out", str(tmp_path / "eval"),
                     "--methods", "random,irl_nokin,ours", "--samples", "2",
                     "--checkpoint", str(tmp_path / "ours" / "checkpoint.ckpt"),
                     "--checkpoint-nokin", str(tmp_path / "irl_nokin" / "checkpoint.ckpt")]) == 0
    assert forecasts == [n_test, n_test]
    # one propagation of every method's forecasts (random, irl_nokin, ours),
    # and one sampling pass per test demo over the three methods
    assert terminal == [3 * n_test]
    assert scored == [3] * n_test
