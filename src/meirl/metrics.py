"""Forecast evaluation: action NLL, Hausdorff distance, terminal-state entropy.

NLL is normalized per transition, so the uniform policy scores exactly ln 4 on
every demonstration. Hausdorff distances are symmetric and measured in meters
on cell centers. Terminal entropy is that of the forecast's last cell, whose
state distribution (`horizon - 1` moves from the start cell) is propagated
exactly, not sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import dump_json
from .errors import ConfigError
from .mdp import Policy, cells_to_xy, sample_trajectories, state_distribution
from .synthetic import Demonstration

METHOD_ORDER = ("ekf", "bc", "random", "irl_nokin", "ours")


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
    demo_xy = cells_to_xy(demo.future, demo.world.resolution)
    total = 0.0
    for k in range(n_samples):
        total += hausdorff(demo_xy, cells_to_xy(rollouts[k], demo.world.resolution))
    return total / n_samples


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
