"""Grid MDP: deterministic cardinal moves, annealed-softmax value iteration, SVF.

States are cells of a rows x cols grid. The four actions are, in fixed order,
up (-row), down (+row), left (-col), right (+col); moving off the grid leaves
the state unchanged. Reward is a function of the state only, so planners here
take a per-cell reward map and infer the grid from its shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError

N_ACTIONS = 4
ACTION_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))
VALUE_SENTINEL = -1e9

ENV_CHANNEL_NAMES = ("max_height", "height_variance", "mean_r", "mean_g", "mean_b")


@dataclass
class GridWorld:
    """Local grid map with the five terrain channels, each normalized to [0, 1]."""

    rows: int
    cols: int
    resolution: float
    env: np.ndarray  # (5, rows, cols)

    def __post_init__(self):
        if self.rows < 8 or self.cols < 8:
            raise ConfigError(f"world must be at least 8x8, got {self.rows}x{self.cols}")
        if not self.resolution > 0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        self.env = np.asarray(self.env, dtype=np.float64)
        if self.env.shape != (len(ENV_CHANNEL_NAMES), self.rows, self.cols):
            raise ConfigError(
                f"env channels must be (5, {self.rows}, {self.cols}), got {self.env.shape}"
            )
        if not np.isfinite(self.env).all():
            raise ConfigError("env channels contain non-finite values")
        if self.env.min() < 0.0 or self.env.max() > 1.0:
            raise ConfigError("env channels must be normalized to [0, 1]")

    @property
    def shape(self):
        return (self.rows, self.cols)


@lru_cache(maxsize=128)
def flat_transition_table(rows: int, cols: int):
    """Flat index of each cell's successor under each action: (4, rows*cols);
    treat as read-only."""
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    deltas = np.asarray(ACTION_DELTAS)
    nr = np.clip(rr[None, :, :] + deltas[:, 0, None, None], 0, rows - 1)
    nc = np.clip(cc[None, :, :] + deltas[:, 1, None, None], 0, cols - 1)
    flat = (nr * cols + nc).reshape(N_ACTIONS, rows * cols)
    flat.setflags(write=False)
    return flat


@dataclass
class Policy:
    """Per-state action distribution, rows of probs sum to one."""

    probs: np.ndarray  # (4, rows, cols)
    value: np.ndarray | None = None
    sweeps: int = 0

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 3 or self.probs.shape[0] != N_ACTIONS:
            raise ConfigError(f"policy probs must be (4, rows, cols), got {self.probs.shape}")
        sums = self.probs.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ConfigError("policy rows must sum to 1 within 1e-9")

    @property
    def shape(self):
        return self.probs.shape[1:]


def uniform_policy(rows: int, cols: int) -> Policy:
    return Policy(probs=np.full((N_ACTIONS, rows, cols), 1.0 / N_ACTIONS))


def annealed_softmax(q: np.ndarray, beta: float, axis: int = 0) -> np.ndarray:
    """Softmax of beta * q along `axis`, max-subtracted for stability."""
    q = np.asarray(q, dtype=np.float64)
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    z = beta * (q - q.max(axis=axis, keepdims=True))
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def value_iteration(reward: np.ndarray, gamma: float = 0.95, epsilon: float = 1e-4,
                    beta: float = 1.0, max_sweeps: int | None = None) -> Policy:
    """Max-Bellman sweeps to a fixed point, then an annealed-softmax policy over Q.

    Values start from a large negative sentinel; iteration stops when the sup
    change drops below epsilon. Q(s, a) = r(s) + gamma * V(next(s, a)).
    """
    reward = np.asarray(reward, dtype=np.float64)
    if reward.ndim != 2:
        raise ConfigError(f"reward must be 2-d, got shape {reward.shape}")
    if not np.isfinite(reward).all():
        raise ConfigError("reward map contains non-finite values")
    if not 0.0 <= gamma < 1.0:
        raise ConfigError(f"gamma must be in [0, 1), got {gamma}")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    rows, cols = reward.shape
    if max_sweeps is None:
        # the sentinel start needs ~log(range)/log(1/gamma) sweeps to wash out,
        # which the area-scaled budget undershoots on tiny grids
        max_sweeps = max(10 * rows * cols, 1000)
    # value.reshape(-1)[next_cell] is V(next(s, a)), shaped (4, rows, cols)
    next_cell = flat_transition_table(rows, cols).reshape(N_ACTIONS, rows, cols)
    value = np.full((rows, cols), VALUE_SENTINEL)
    residual = np.inf
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        new_value = (reward[None, :, :] + gamma * value.reshape(-1)[next_cell]).max(axis=0)
        residual = np.abs(new_value - value).max()
        value = new_value
        if residual < epsilon:
            break
    else:
        raise ConvergenceError(
            f"value iteration did not converge in {max_sweeps} sweeps "
            f"(residual {residual:.3e}, epsilon {epsilon:.1e})"
        )
    q = reward[None, :, :] + gamma * value.reshape(-1)[next_cell]
    return Policy(probs=annealed_softmax(q, beta, axis=0), value=value, sweeps=sweeps)


def _check_cell(cell, rows: int, cols: int):
    r, c = int(cell[0]), int(cell[1])
    if not (0 <= r < rows and 0 <= c < cols):
        raise ConfigError(f"cell {cell} outside {rows}x{cols} grid")
    return r, c


def _step_distribution(policy: Policy, mu: np.ndarray) -> np.ndarray:
    rows, cols = mu.shape
    flat_next = flat_transition_table(rows, cols)
    out = np.zeros(rows * cols)
    mu_flat = mu.reshape(-1)
    probs_flat = policy.probs.reshape(N_ACTIONS, -1)
    for a in range(N_ACTIONS):
        out += np.bincount(flat_next[a], weights=mu_flat * probs_flat[a],
                           minlength=rows * cols)
    return out.reshape(rows, cols)


def compute_svf(policy: Policy, start, horizon: int) -> np.ndarray:
    """Expected state-visitation counts over horizon steps; total mass == horizon."""
    rows, cols = policy.shape
    r, c = _check_cell(start, rows, cols)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    mu = np.zeros((rows, cols))
    mu[r, c] = 1.0
    total = np.zeros((rows, cols))
    for t in range(horizon):
        total += mu
        if t < horizon - 1:
            mu = _step_distribution(policy, mu)
    return total


def state_distribution(policy: Policy, start, steps: int) -> np.ndarray:
    """Exact state distribution after `steps` transitions from a point mass."""
    rows, cols = policy.shape
    r, c = _check_cell(start, rows, cols)
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    mu = np.zeros((rows, cols))
    mu[r, c] = 1.0
    for _ in range(steps):
        mu = _step_distribution(policy, mu)
    return mu


def sample_trajectories(policy: Policy, start, horizon: int, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """n rollouts of `horizon` cells each; returns int array (n, horizon, 2)."""
    rows, cols = policy.shape
    r, c = _check_cell(start, rows, cols)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    flat_next = flat_transition_table(rows, cols)
    probs_flat = policy.probs.reshape(N_ACTIONS, -1)
    cur = np.full(n, r * cols + c, dtype=np.int64)
    cells = np.empty((n, horizon), dtype=np.int64)
    cells[:, 0] = cur
    for t in range(1, horizon):
        p = probs_flat[:, cur]
        cum = np.cumsum(p, axis=0)
        u = rng.random(n)
        a = np.minimum((u[None, :] > cum).sum(axis=0), N_ACTIONS - 1)
        cur = flat_next[a, cur]
        cells[:, t] = cur
    out = np.empty((n, horizon, 2), dtype=np.int64)
    out[:, :, 0], out[:, :, 1] = np.divmod(cells, cols)
    return out


def actions_from_cells(cells: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Recover the action sequence behind a cell path.

    A zero displacement is only legal on the boundary (a move that was clipped)
    and maps to the first action in fixed order that stays put there.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != 2:
        raise ConfigError(f"cell path must be (n, 2), got {cells.shape}")
    flat_next = flat_transition_table(rows, cols)
    delta_to_action = {d: a for a, d in enumerate(ACTION_DELTAS)}
    actions = np.empty(len(cells) - 1, dtype=np.int64)
    for t in range(len(cells) - 1):
        r0, c0 = _check_cell(cells[t], rows, cols)
        r1, c1 = _check_cell(cells[t + 1], rows, cols)
        step = (r1 - r0, c1 - c0)
        if step in delta_to_action:
            actions[t] = delta_to_action[step]
        elif step == (0, 0):
            here = r0 * cols + c0
            stay = [a for a in range(N_ACTIONS) if flat_next[a, here] == here]
            if not stay:
                raise ConfigError(f"cell path stays at interior cell ({r0}, {c0})")
            actions[t] = stay[0]
        else:
            raise ConfigError(f"cell path step {step} at index {t} is not a cardinal move")
    return actions


def enumerate_trajectory_distribution(reward: np.ndarray, start, horizon: int,
                                      max_paths: int = 4096) -> dict:
    """Exact max-ent distribution over all 4**horizon action sequences.

    P(path) is proportional to exp(sum of rewards over visited cells, start
    included). Only meant for tiny instances; refuses anything bigger than
    max_paths sequences.
    """
    reward = np.asarray(reward, dtype=np.float64)
    rows, cols = reward.shape
    r, c = _check_cell(start, rows, cols)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    n_paths = N_ACTIONS ** horizon
    if n_paths > max_paths:
        raise ConfigError(
            f"enumeration over {n_paths} action sequences exceeds the cap of "
            f"{max_paths}; reduce the horizon"
        )
    flat_next = flat_transition_table(rows, cols)
    reward_flat = reward.reshape(-1)
    # actions[i, t] = digit t of path index i, base 4
    idx = np.arange(n_paths)
    actions = np.empty((n_paths, horizon), dtype=np.int64)
    for t in range(horizon):
        actions[:, horizon - 1 - t] = (idx // (N_ACTIONS ** t)) % N_ACTIONS
    cur = np.full(n_paths, r * cols + c, dtype=np.int64)
    log_w = np.full(n_paths, reward_flat[cur[0]])
    for t in range(horizon):
        cur = flat_next[actions[:, t], cur]
        log_w += reward_flat[cur]
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    return {tuple(int(a) for a in actions[i]): float(w[i]) for i in range(n_paths)}
