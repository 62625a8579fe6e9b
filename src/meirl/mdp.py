"""Grid MDP: deterministic cardinal moves, exact planning, softmax policies, SVF.

States are cells of a rows x cols grid. The four actions are, in fixed order,
up (-row), down (+row), left (-col), right (+col); moving off the grid leaves
the state unchanged. Reward is a function of the state only, so planners here
take a per-cell reward map and infer the grid from its shape.

The planners are batch-first: `value_iteration` takes a (B, rows, cols) stack
of reward maps, and `compute_svf` and `state_distribution` a batch of
policies with a start cell and a horizon or step count each, so one call
plans a whole training batch or scores all of a method's forecasts. Batch
position b is computed exactly as if it were planned alone: its policy
freezes at its own last policy-iteration round and its visitation stops at
its own last step, so a single demo is just B = 1 and the result does not
depend on what else is in the batch, to the bit. The visit counts and the
terminal distributions come from one forward pass. `sample_trajectories`
stays per demo, because each demo's rollouts draw from its own seeded
generator.

`value_iteration` keeps its historical name but runs Howard policy
iteration: each round evaluates a deterministic policy exactly by pointer
doubling and improves it greedily, so the returned V is the exact value of
the final greedy policy, with no tolerance to tune.

The planner has no temperature: its policy is softmax(Q), pi ~ exp Q as in
max-ent IRL. Q is positively homogeneous in the reward, so a caller who wants
a sharper or flatter policy scales the reward map (as the expert does).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConvergenceError

N_ACTIONS = 4
ACTION_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))
MAX_ROUNDS = 10_000  # policy-iteration rounds before value_iteration gives up
SWITCH_TOL = 1e-12  # relative Q gain a cell needs to switch action
DOUBLING_FLOOR = 2.0 ** -60  # path weight below which policy evaluation stops

ENV_CHANNEL_NAMES = ("max_height", "height_variance", "mean_r", "mean_g", "mean_b")


def read_only(a, dtype) -> np.ndarray:
    """`a` as a read-only array of `dtype`. An array the caller passed in is
    copied first, so its flags stay as they were and it shares no memory with
    the frozen one."""
    out = np.asarray(a, dtype=dtype)
    if out is a:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridWorld:
    """Local grid map with the five terrain channels, each normalized to [0, 1].
    Frozen, and `env` is kept read-only."""

    rows: int
    cols: int
    resolution: float
    env: np.ndarray  # (5, rows, cols)

    def __post_init__(self):
        if self.rows < 8 or self.cols < 8:
            raise ConfigError(f"world must be at least 8x8, got {self.rows}x{self.cols}")
        if not 0 < self.resolution < np.inf:
            raise ConfigError(f"resolution must be finite and positive, got {self.resolution}")
        object.__setattr__(self, "env", read_only(self.env, np.float64))
        channels = len(ENV_CHANNEL_NAMES)
        if self.env.shape != (channels, self.rows, self.cols):
            raise ConfigError(f"env channels must be ({channels}, {self.rows}, "
                              f"{self.cols}), got {self.env.shape}")
        if not np.isfinite(self.env).all():
            raise ConfigError("env channels contain non-finite values")
        if self.env.min() < 0.0 or self.env.max() > 1.0:
            raise ConfigError("env channels must be normalized to [0, 1]")

    @property
    def shape(self):
        return (self.rows, self.cols)


def cells_to_xy(cells, resolution: float) -> np.ndarray:
    """(n, 2) cell centres in meters: x runs along columns, y along rows (so +y
    pairs with the "down" action)."""
    cells = np.asarray(cells)
    return np.stack([(cells[:, 1] + 0.5) * resolution,
                     (cells[:, 0] + 0.5) * resolution], axis=1)


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


def neighbors(mask) -> np.ndarray:
    """(4, rows, cols) bool in ACTION_DELTAS order: True where the move from a
    cell in that direction stays on the grid and lands on a cell of `mask`.
    The one owner of grid adjacency beside flat_transition_table."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    flat_next = flat_transition_table(rows, cols)
    moved = flat_next != np.arange(rows * cols)
    return (moved & mask.reshape(-1)[flat_next]).reshape(N_ACTIONS, rows, cols)


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
        if not (np.abs(sums - 1.0) <= 1e-9).all():  # NaN fails too
            raise ConfigError("policy rows must sum to 1 within 1e-9")
        if (self.probs < 0.0).any():  # the sampler needs a nondecreasing CDF
            raise ConfigError("policy probabilities must be nonnegative")

    @property
    def shape(self):
        return self.probs.shape[1:]


def uniform_policy(rows: int, cols: int) -> Policy:
    return Policy(probs=np.full((N_ACTIONS, rows, cols), 1.0 / N_ACTIONS))


def softmax(q: np.ndarray, axis: int = 0) -> np.ndarray:
    """Softmax of q along `axis`, max-subtracted for stability."""
    q = np.asarray(q, dtype=np.float64)
    e = np.exp(q - q.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _stack(maps, what: str, ndim: int) -> np.ndarray:
    """Float64 (B, ...) stack of per-demo arrays that must share one shape."""
    if not isinstance(maps, np.ndarray):
        shapes = sorted({np.shape(m) for m in maps})
        if len(shapes) > 1:
            raise ConfigError(f"{what} of one batch must share a grid shape, got {shapes}")
    stack = np.asarray(maps, dtype=np.float64)
    if stack.ndim != ndim or len(stack) == 0:
        raise ConfigError(f"{what} must be a nonempty {ndim}-d batch stack, got shape {stack.shape}")
    return stack


class Plans(tuple):
    """value_iteration's result: one Policy per batch position, in batch order."""

    @property
    def sweeps(self) -> int:
        """Policy-iteration rounds summed over the batch."""
        return sum(p.sweeps for p in self)


def _doublings(gamma: float) -> int:
    """The K at which gamma^(2^K) first drops below DOUBLING_FLOOR (10 at
    gamma = 0.95): the doublings that sum a path's rewards to full precision."""
    k, tail = 0, gamma
    while tail >= DOUBLING_FLOOR:
        tail *= tail
        k += 1
    return k


def _policy_values(reward: np.ndarray, succ: np.ndarray, gamma: float,
                   doublings: int) -> np.ndarray:
    """Discounted return of every cell under deterministic successors `succ`
    (flat indices into `reward`, both (m, rows*cols)), by pointer doubling:
    S_{k+1}(s) = S_k(s) + gamma^(2^k) * S_k(next^(2^k)(s)), from S_0 = r, so
    S_k sums the first 2^k rewards of each cell's path."""
    v, succ, weight = reward.reshape(-1), succ.reshape(-1), gamma
    for k in range(doublings):
        step = v.take(succ)
        step *= weight
        step += v
        v = step
        if k + 1 < doublings:
            succ, weight = succ.take(succ), weight * weight
    return v.reshape(reward.shape)


def value_iteration(rewards, gamma: float = 0.95) -> Plans:
    """Howard policy iteration to the optimal values, then the softmax policy
    over Q, for each reward map of a (B, rows, cols) stack (or a list of
    same-shape maps). Q(s, a) = r(s) + gamma * V(next(s, a)).

    The first policy moves each cell to its best-rewarded neighbour. A round
    evaluates the current deterministic policy exactly (`_policy_values`),
    then switches every cell whose best Q beats its current action's by more
    than SWITCH_TOL times the largest |Q| of its map (at least 1), to the
    first best action. Position b stops at the first round in which none of
    its cells switches, so its V is the exact value of its final policy, and
    later rounds leave it untouched. A position still switching after
    MAX_ROUNDS rounds is a ConvergenceError.
    """
    rewards = _stack(rewards, "reward maps", 3)
    bad = np.flatnonzero(~np.isfinite(rewards).all(axis=(1, 2)))
    if bad.size:
        raise ConfigError(f"reward maps at batch positions {bad.tolist()} contain "
                          "non-finite values")
    if not 0.0 <= gamma < 1.0:
        raise ConfigError(f"gamma must be in [0, 1), got {gamma}")
    n, rows, cols = rewards.shape
    doublings = _doublings(gamma)
    # value[:, next_cell] is V(next(s, a)) per position, shaped (n, 4, rows*cols);
    # the rounds take it from the live rows of v by flat index, the first k
    # rows of `gather` serving k live positions. In any (k, 4, rows*cols)
    # array, (b, a, s) sits at flat index cell[b, s] + a * rows*cols, which
    # picks each policy's successors out of `gather` and its Q out of q.
    next_cell = flat_transition_table(rows, cols)
    gather = next_cell[None] + (np.arange(n) * (rows * cols))[:, None, None]
    cell = np.arange(n)[:, None] * (N_ACTIONS * rows * cols) + np.arange(rows * cols)
    reward = rewards.reshape(n, 1, rows * cols)
    value = np.empty((n, rows * cols))
    rounds = np.zeros(n, dtype=np.int64)
    live = np.arange(n)  # positions still improving, with their rows of r and act
    r, act = reward, reward.take(gather).argmax(axis=1)
    for round_ in range(1, MAX_ROUNDS + 1):
        m = len(live)
        chosen = cell[:m] + act * (rows * cols)
        v = _policy_values(r[:, 0], gather.take(chosen), gamma, doublings)
        overflow = ~np.isfinite(v).all(axis=1)
        if overflow.any():
            raise ConvergenceError(f"value iteration produced non-finite values at batch "
                                   f"positions {live[overflow].tolist()}")
        q = v.take(gather[:m])
        q *= gamma
        q += r
        margin = SWITCH_TOL * np.maximum(1.0, np.abs(q).max(axis=(1, 2)))
        switch = q.max(axis=1) - q.take(chosen) > margin[:, None]
        if switch.any():
            act[switch] = q.transpose(0, 2, 1)[switch].argmax(axis=1)
        done = ~switch.any(axis=1)
        if done.any():
            value[live[done]] = v[done]
            rounds[live[done]] = round_
            keep = ~done
            live, r, act = live[keep], r[keep], act[keep]
            if not live.size:
                break
    else:
        raise ConvergenceError(
            f"value iteration did not converge in {MAX_ROUNDS} rounds at batch "
            f"positions {live.tolist()} ({int(switch[~done].sum())} cells still "
            "switching action)"
        )
    q = reward + gamma * value[:, next_cell]
    probs = softmax(q, axis=1).reshape(n, N_ACTIONS, rows, cols)
    value = value.reshape(n, rows, cols)
    return Plans(Policy(probs=probs[b], value=value[b], sweeps=int(rounds[b]))
                 for b in range(n))


def _check_cell(cell, rows: int, cols: int):
    r, c = int(cell[0]), int(cell[1])
    if not (0 <= r < rows and 0 <= c < cols):
        raise ConfigError(f"cell {cell} outside {rows}x{cols} grid")
    return r, c


def _forward_pass(policies, starts, horizons):
    """The forward visitation pass of max-ent IRL (Ziebart et al. 2008,
    Algorithm 1) over a batch. Position b starts as a point mass on starts[b]
    and follows policies[b] for the horizon's cells t = 0 .. horizons[b] - 1.
    Returns, each (B, rows, cols), the sum of b's distributions over those
    cells and its distribution at the last one.

    A step is one bincount per action over all B*rows*cols cells, each
    position's successors offset into its own block, so a block sums only its
    own cells, in the order it would alone. A position's distribution is
    zeroed once it ends, which adds exactly nothing to its visit counts."""
    probs = _stack([p.probs for p in policies], "policies", 4)
    n, _, rows, cols = probs.shape
    horizons = np.asarray(horizons)
    if len(starts) != n or horizons.shape != (n,):
        raise ConfigError(f"{n} policies need {n} start cells and horizons, got "
                          f"{len(starts)} and {horizons.shape}")
    short = np.flatnonzero(horizons < 1)
    if short.size:
        raise ConfigError(f"horizon must be >= 1, got {horizons[short].tolist()} "
                          f"at batch positions {short.tolist()}")
    size = n * rows * cols
    mu = np.zeros((n, rows * cols))
    for b, start in enumerate(starts):
        r, c = _check_cell(start, rows, cols)
        mu[b, r * cols + c] = 1.0
    probs = probs.reshape(n, N_ACTIONS, rows * cols)
    offsets = (np.arange(n) * (rows * cols))[:, None]
    targets = [(flat_next[None, :] + offsets).reshape(-1)
               for flat_next in flat_transition_table(rows, cols)]
    total, last = np.zeros((n, rows * cols)), np.empty((n, rows * cols))
    ends = horizons - 1
    final, end_steps = int(ends.max()), set(ends.tolist())
    for t in range(final + 1):
        total += mu
        if t in end_steps:
            done = ends == t
            last[done] = mu[done]
            mu[done] = 0.0
        if t < final:
            step = np.zeros(size)
            for a in range(N_ACTIONS):
                step += np.bincount(targets[a], weights=(mu * probs[:, a]).reshape(-1),
                                    minlength=size)
            mu = step.reshape(n, rows * cols)
    return total.reshape(n, rows, cols), last.reshape(n, rows, cols)


def compute_svf(policies, starts, horizons) -> np.ndarray:
    """Expected state-visitation counts, (B, rows, cols): position b follows
    policies[b] from starts[b] for horizons[b] cells, so its total mass equals
    horizons[b]."""
    return _forward_pass(policies, starts, horizons)[0]


def state_distribution(policies, starts, horizons) -> np.ndarray:
    """Exact state distributions, (B, rows, cols): position b's at the last of
    its horizons[b] cells, horizons[b] - 1 moves under policies[b] from starts[b]."""
    return _forward_pass(policies, starts, horizons)[1]


def sample_trajectories(policy: Policy, start, horizon: int, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """n rollouts of `horizon` cells each, as flat cell indices `row * cols + col`;
    returns int64 (n, horizon), the transpose of a step-major buffer.

    One block draw of (horizon - 1, n) uniforms takes the same numbers from
    `rng`, and leaves it in the same state, as one draw of n per step. A step's
    action is the count of its cell's first three action-CDF bounds below its
    uniform: the CDF never decreases, so that is the count of all four capped
    at the last action, even where the last bound rounds just below 1."""
    rows, cols = policy.shape
    r, c = _check_cell(start, rows, cols)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    n_cells = rows * cols
    # successor of cell s under action a at a * n_cells + s
    next_flat = flat_transition_table(rows, cols).ravel()
    cdf = np.cumsum(policy.probs.reshape(N_ACTIONS, n_cells), axis=0)
    first, second, third = cdf[:N_ACTIONS - 1]
    uniforms = rng.random((horizon - 1, n))
    cells = np.empty((horizon, n), dtype=np.int64)
    cells[0] = r * cols + c
    for t, u in enumerate(uniforms):
        cur = cells[t]
        a = np.add(u > first[cur], u > second[cur], dtype=np.int64)
        a += u > third[cur]
        cells[t + 1] = next_flat[cur + n_cells * a]
    return cells.T


def actions_from_cells(cells: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Recover the action sequence behind a cell path: at each step, the first
    action in fixed order whose successor is the next cell. A stay is only
    legal on the boundary, where a move was clipped."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2 or cells.shape[1] != 2:
        raise ConfigError(f"cell path must be (n, 2), got {cells.shape}")
    off = np.flatnonzero(((cells < 0) | (cells >= (rows, cols))).any(axis=1))
    if off.size:
        raise ConfigError(f"cell {tuple(cells[off[0]].tolist())} outside {rows}x{cols} grid")
    flat = cells[:, 0] * cols + cells[:, 1]
    hits = flat_transition_table(rows, cols)[:, flat[:-1]] == flat[1:]
    bad = np.flatnonzero(~hits.any(axis=0))
    if bad.size:
        t = int(bad[0])
        raise ConfigError(f"cell path step {t} from {tuple(cells[t].tolist())} to "
                          f"{tuple(cells[t + 1].tolist())} is no move on the grid")
    return hits.argmax(axis=0)
