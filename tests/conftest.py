import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from meirl.checkpoint import MAGIC
from meirl.errors import ConfigError
from meirl.mdp import N_ACTIONS, GridWorld, _check_cell, flat_transition_table

MAX_ENUMERATED_PATHS = 4096

# checkpoint meta blocks that must be refused: bytes that are not UTF-8, text
# that is not JSON, JSON that is not an object, and entries of the wrong type
CORRUPT_META = {"not_utf8": b'{"iteration": "\xff"}', "not_json": b'{"iteration": 1',
                "not_object": b"[]", "adam_not_object": b'{"adam": []}',
                "adam_not_number": b'{"adam": {"learning_rate": "x"}}',
                "iteration_not_int": b'{"iteration": []}'}


def with_meta_block(raw: bytes, meta: bytes) -> bytes:
    """A checkpoint's bytes with its meta block replaced by `meta`."""
    (old_len,) = struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])
    rest = raw[len(MAGIC) + 4 + old_len:]
    return MAGIC + struct.pack("<I", len(meta)) + meta + rest


# boolean grid masks from 1x1 to 9x9
BOOL_MASKS = st.integers(1, 9).flatmap(lambda rows: st.integers(1, 9).flatmap(
    lambda cols: st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols).map(
        lambda bits: np.array(bits).reshape(rows, cols))))


def rand_env(rng, rows, cols):
    return rng.random((5, rows, cols))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_world(rows=8, cols=8, resolution=1.0, seed=0):
    r = np.random.default_rng(seed)
    return GridWorld(rows=rows, cols=cols, resolution=resolution,
                     env=rand_env(r, rows, cols))


def enumerate_trajectory_distribution(reward: np.ndarray, start, horizon: int) -> dict:
    """Exact max-ent distribution over all 4**horizon action sequences.

    P(path) is proportional to exp(sum of rewards over visited cells, start
    included). Only meant for tiny instances; refuses anything bigger than
    MAX_ENUMERATED_PATHS sequences.
    """
    reward = np.asarray(reward, dtype=np.float64)
    rows, cols = reward.shape
    r, c = _check_cell(start, rows, cols)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    n_paths = N_ACTIONS ** horizon
    if n_paths > MAX_ENUMERATED_PATHS:
        raise ConfigError(
            f"enumeration over {n_paths} action sequences exceeds the cap of "
            f"{MAX_ENUMERATED_PATHS}; reduce the horizon"
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


def reference_sample_trajectories(policy, start, horizon: int, n: int,
                                  rng: np.random.Generator) -> np.ndarray:
    """The per-step sampler: one draw of n uniforms per step, each action the
    count of all four action-CDF bounds below its uniform, capped at the last
    action; int64 (n, horizon) flat cells."""
    rows, cols = policy.shape
    r, c = _check_cell(start, rows, cols)
    flat_next = flat_transition_table(rows, cols)
    cum_flat = np.cumsum(policy.probs.reshape(N_ACTIONS, -1), axis=0)
    cur = np.full(n, r * cols + c, dtype=np.int64)
    cells = np.empty((n, horizon), dtype=np.int64)
    cells[:, 0] = cur
    for t in range(1, horizon):
        cum = cum_flat[:, cur]
        u = rng.random(n)
        a = np.minimum((u[None, :] > cum).sum(axis=0), N_ACTIONS - 1)
        cur = flat_next[a, cur]
        cells[:, t] = cur
    return cells
