"""Forecast evaluation: action NLL, Hausdorff distance, terminal-state entropy,
and the results table built from them.

`table_row` turns one method's per-demo scores into its row of the table;
`export_csv` and `export_json` write the rows in the order they are given.

NLL is normalized per transition, so the uniform policy scores exactly ln 4 on
every demonstration. Hausdorff distances are symmetric and measured in meters
on cell centers. Terminal entropy is that of the forecast's last cell, whose
state distribution the caller propagates exactly, not by sampling, with
`mdp.state_distribution` at the forecast's horizon.

Sampled HD scores all rollouts of a demo at once, on integer cells, those of
every policy `mean_sampled_hd` is given: the policies share the demo's
seeded uniforms, its start cell and its future, so one sampler call and one
table serve them all. A table holds the squared cell distance from every
grid cell to every future cell (int32, rows*cols by H). Walking the
rollouts' flat cell indices step by step, as the sampler returns them, a
running max of each step's row minimum gives the rollout-to-future term and
a running min of the gathered rows, a (chunk, H) block, gives the
future-to-rollout term: integer min/max only, no reduction over the steps.
One square root times the resolution gives each distance, and each policy's
mean sums its own distances left to right with np.cumsum. Rollouts go
through in chunks whose two (chunk, H) blocks (the running min and one
step's gathered rows) stay near HD_CHUNK_BYTES, so the working memory beyond
the rollouts and their distances does not grow with the sample count. At
resolution 1.0 (or any power of two) each distance equals `hausdorff` on the
cell centres bitwise. At other resolutions it is within one ulp of the exact
distance, while `hausdorff` rounds each scaled coordinate before it
subtracts, so the two can differ in the last few ulp.
"""

from __future__ import annotations

import math

import numpy as np

from .config import dump_json, write_csv
from .errors import ConfigError
from .mdp import Policy, sample_trajectories
from .synthetic import Demonstration

HD_CHUNK_BYTES = 4 << 20  # the two int32 (chunk, H) blocks of one sampled-HD chunk


def nll(policy: Policy, demo: Demonstration) -> float:
    """Mean negative log-probability of the demonstrated actions, nats per step.
    A demo action with zero probability yields inf (flagged downstream)."""
    cells = demo.future
    probs = policy.probs[demo.actions, cells[:-1, 0], cells[:-1, 1]]
    if np.any(probs <= 0.0):
        return float("inf")
    logs = np.log(probs)
    # pivot-centered compensated mean: a constant-probability policy must come
    # out bitwise equal to the analytic per-step value at any trajectory length
    pivot = float(logs[0])
    return -(pivot + math.fsum(logs - pivot) / len(logs))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 2 or b.shape[1] != 2:
        raise ConfigError("hausdorff expects (n, 2) point sets")
    if len(a) == 0 or len(b) == 0:
        raise ConfigError("hausdorff of an empty point set")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def mean_sampled_hd(policies, demo: Demonstration, n_samples: int = 1000,
                    seed: int = 0) -> list:
    """For each of `policies`, the mean symmetric HD between the demo future
    and n_samples rollouts of the same horizon from the demo's start cell.
    The policies share the seeded uniforms, so each mean is the one its
    policy scores alone."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rollouts = sample_trajectories(policies, demo.start, demo.horizon, n_samples, rng)
    dists = sampled_hausdorff(rollouts.reshape(-1, demo.horizon), demo.future,
                              demo.world.shape, demo.world.resolution)
    # cumsum adds left to right; np.sum's pairwise order would move the last bits
    return (np.cumsum(dists.reshape(len(policies), n_samples), axis=1)[:, -1]
            / n_samples).tolist()


def sampled_hausdorff(rollouts, future, shape, resolution: float) -> np.ndarray:
    """Symmetric HD in meters between each path of flat cells `row * cols + col`
    in `rollouts` (n, h) and the (H, 2) `future`, all cells on a `shape` grid."""
    rows, cols = shape
    future = np.asarray(future, dtype=np.int64)
    rollouts = np.asarray(rollouts, dtype=np.int64)
    r, c = np.divmod(np.arange(rows * cols), cols)
    d2 = ((r[:, None] - future[:, 0]) ** 2
          + (c[:, None] - future[:, 1]) ** 2).astype(np.int32)
    to_future = d2.min(axis=1)
    n, h = rollouts.shape
    chunk = max(1, HD_CHUNK_BYTES // (2 * len(future) * d2.itemsize))
    out = np.empty(n)
    for lo in range(0, n, chunk):
        steps = rollouts[lo:lo + chunk].T
        rollout_to_future = to_future[steps[0]]
        nearest = d2[steps[0]]
        for flat in steps[1:]:
            np.maximum(rollout_to_future, to_future[flat], out=rollout_to_future)
            np.minimum(nearest, d2[flat], out=nearest)
        future_to_rollout = nearest.max(axis=1)
        out[lo:lo + chunk] = np.sqrt(np.maximum(rollout_to_future, future_to_rollout))
    return out * resolution


def terminal_entropy(dist) -> float:
    """Entropy in nats of the state distribution `dist`, an array."""
    p = dist[dist > 0.0]
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# aggregation and export

def _mean_se(values) -> tuple:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        return float(arr.mean()), float("nan")
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, se


TABLE_COLUMNS = ("method", "nll", "nll_se", "hd", "hd_se", "terminal_entropy",
                 "n_demos", "n_infinite_nll")


def table_row(method: str, hds, nlls=None, entropies=()) -> dict:
    """One method's table row from its per-demo scores: means and standard
    errors of HD and NLL, the mean terminal entropy and the count of infinite
    NLLs. `nlls` is None for predictors with no action distribution (EKF), and
    so are its cells; infinite entries are counted, not hidden."""
    row = {"method": method, "n_demos": len(hds)}
    row["hd"], row["hd_se"] = _mean_se(hds)
    row["nll"], row["nll_se"] = (None, None) if nlls is None else _mean_se(nlls)
    row["n_infinite_nll"] = 0 if nlls is None else sum(1 for v in nlls if math.isinf(v))
    row["terminal_entropy"] = _mean_se(entropies)[0] if entropies else None
    return row


def _fmt(value) -> str:
    if value is None:
        return "N.A."
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def export_csv(rows, path) -> None:
    write_csv(path, TABLE_COLUMNS, ([_fmt(row[c]) for c in TABLE_COLUMNS] for row in rows))


def export_json(rows, path) -> None:
    dump_json(path, {"methods": list(rows)})
