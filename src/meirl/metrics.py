"""Forecast evaluation: action NLL, Hausdorff distance, terminal-state entropy.

NLL is normalized per transition, so the uniform policy scores exactly ln 4 on
every demonstration. Hausdorff distances are symmetric and measured in meters
on cell centers. Terminal entropy is that of the forecast's last cell, whose
state distribution (`horizon - 1` moves from the start cell) is propagated
exactly, not sampled.

Sampled HD scores all rollouts of a demo at once, on integer cells. A table
holds the squared cell distance from every grid cell to every future cell
(int32, rows*cols by H); gathering its rows at the rollout cells gives both
directed terms as integer min/max reductions, and one square root times the
resolution gives each distance. Rollouts go through in chunks whose gathered
(chunk, H, H) block stays near HD_CHUNK_BYTES, so the working memory beyond
the rollouts and their n distances does not grow with the sample count.
At resolution 1.0 (or any power of two) each distance equals `hausdorff` on
the cell centres bitwise. At other resolutions it is within one ulp of the
exact distance, while `hausdorff` rounds each scaled coordinate before it
subtracts, so the two can differ in the last few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import dump_json
from .errors import ConfigError
from .mdp import Policy, sample_trajectories, state_distribution
from .synthetic import Demonstration

METHOD_ORDER = ("ekf", "bc", "random", "irl_nokin", "ours")
HD_CHUNK_BYTES = 4 << 20  # the gathered int32 block of one sampled-HD chunk


def nll(policy: Policy, demo: Demonstration) -> float:
    """Mean negative log-probability of the demonstrated actions, nats per step.
    A demo action with zero probability yields inf (flagged downstream)."""
    cells = demo.future
    if len(cells) < 2:
        raise ConfigError("demo future needs at least one transition for NLL")
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


def mean_sampled_hd(policy: Policy, demo: Demonstration,
                    n_samples: int = 1000, seed: int = 0) -> float:
    """Mean symmetric HD between the demo future and policy rollouts of the
    same horizon from the demo's start cell."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rollouts = sample_trajectories(policy, tuple(demo.future[0]), demo.horizon,
                                   n_samples, rng)
    total = 0.0
    # a left-to-right sum: np.sum's pairwise order would move the last bits
    for d in sampled_hausdorff(rollouts, demo.future, demo.world.shape,
                               demo.world.resolution).tolist():
        total += d
    return total / n_samples


def sampled_hausdorff(rollouts, future, shape, resolution: float) -> np.ndarray:
    """Symmetric HD in meters between each (h, 2) cell path of `rollouts`
    (n, h, 2) and the (H, 2) `future`, all cells on a `shape` grid."""
    rows, cols = shape
    future = np.asarray(future, dtype=np.int64)
    rollouts = np.asarray(rollouts, dtype=np.int64)
    r, c = np.divmod(np.arange(rows * cols), cols)
    d2 = ((r[:, None] - future[:, 0]) ** 2
          + (c[:, None] - future[:, 1]) ** 2).astype(np.int32)
    to_future = d2.min(axis=1)
    n, h = rollouts.shape[:2]
    chunk = max(1, HD_CHUNK_BYTES // (h * len(future) * d2.itemsize))
    out = np.empty(n)
    for lo in range(0, n, chunk):
        part = rollouts[lo:lo + chunk]
        flat = part[:, :, 0] * cols + part[:, :, 1]
        rollout_to_future = to_future[flat].max(axis=1)
        future_to_rollout = d2[flat].min(axis=1).max(axis=1)
        out[lo:lo + chunk] = np.sqrt(np.maximum(rollout_to_future, future_to_rollout))
    return out * resolution


def terminal_entropy(policy: Policy, start, steps: int) -> float:
    """Entropy in nats of the state distribution `steps` moves from `start`."""
    mu = state_distribution(policy, start, steps)
    p = mu[mu > 0.0]
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


@dataclass
class EvalResult:
    """Per-method evaluation. nll_per_demo is None for predictors with no
    action distribution (EKF); infinite entries are counted, not hidden."""

    method: str
    hd_per_demo: list
    nll_per_demo: Optional[list] = None
    terminal_entropies: list = field(default_factory=list)

    def __post_init__(self):
        if not self.hd_per_demo:
            raise ConfigError("EvalResult needs at least one evaluated demo")
        if any(h < 0 for h in self.hd_per_demo):
            raise ConfigError("negative Hausdorff distance")
        if self.nll_per_demo is not None and len(self.nll_per_demo) != len(self.hd_per_demo):
            raise ConfigError("NLL and HD lists disagree in length")

    @property
    def n_infinite_nll(self) -> int:
        if self.nll_per_demo is None:
            return 0
        return sum(1 for v in self.nll_per_demo if math.isinf(v))

    def summary(self) -> dict:
        hd_mean, hd_se = _mean_se(self.hd_per_demo)
        row = {"method": self.method, "n_demos": len(self.hd_per_demo),
               "hd": hd_mean, "hd_se": hd_se}
        if self.nll_per_demo is None:
            row["nll"] = None
            row["nll_se"] = None
        else:
            row["nll"], row["nll_se"] = _mean_se(self.nll_per_demo)
        row["n_infinite_nll"] = self.n_infinite_nll
        if self.terminal_entropies:
            row["terminal_entropy"], _ = _mean_se(self.terminal_entropies)
        else:
            row["terminal_entropy"] = None
        return row


def _ordered(results) -> list:
    by_name = {r.method: r for r in results}
    if len(by_name) != len(results):
        raise ConfigError("duplicate method rows in evaluation results")
    known = [m for m in METHOD_ORDER if m in by_name]
    extra = sorted(set(by_name) - set(METHOD_ORDER))
    return [by_name[m] for m in known + extra]


def _fmt(value) -> str:
    if value is None:
        return "N.A."
    return f"{value:.17g}"


def export_csv(results, path) -> None:
    cols = ("method", "nll", "nll_se", "hd", "hd_se", "terminal_entropy",
            "n_demos", "n_infinite_nll")
    lines = [",".join(cols)]
    for r in _ordered(results):
        row = r.summary()
        lines.append(",".join(str(row[c]) if c in ("method", "n_demos", "n_infinite_nll")
                              else _fmt(row[c]) for c in cols))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_json(results, path) -> None:
    dump_json(path, {"methods": [r.summary() for r in _ordered(results)]})
