"""Max-ent IRL training loop.

Each iteration samples a demonstration batch, plans under the current reward
with an annealed-softmax policy, and ascends the visitation-matching gradient:
the derivative of the objective with respect to the reward map is the demo
visitation count minus the expected visitation under the planner, so the
descent direction handed to Adam is its negation. Gradients are summed in
batch order, keeping runs bitwise reproducible. A reward map that is not
finite stops the run with the demo's batch position, and a summed gradient
that is not finite stops it before the parameter update.

Wall-clock timings go to a separate file from the per-iteration report, so the
report CSV is byte-identical across runs of the same config and seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as configio
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, ConvergenceError
from .mdp import compute_svf, value_iteration
from .metrics import nll
from .nn import ParameterStore, update_parameters
from .reward_net import backward, build_net, forward, net_from_store
from .synthetic import Demonstration, augment_rotations

REPORT_COLUMNS = ("iteration", "nll", "grad_norm", "vi_sweeps", "svf_l1")


@dataclass
class TrainConfig:
    iterations: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    gamma: float = 0.95
    epsilon: float = 1e-4
    beta0: float = 1.0
    tau: float = 50.0
    seed: int = 0
    checkpoint_every: int = 50
    augment: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        # `not x > 0` so that NaN is refused too
        if not self.beta0 > 0:
            raise ConfigError("beta0 must be positive")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        if not self.learning_rate > 0:
            raise ConfigError("learning rate must be positive")
        if not 0 <= self.gamma < 1:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


def training_beta(config: TrainConfig, iteration: int) -> float:
    return config.beta0 * (1.0 + iteration / config.tau)


def demo_svf(demo: Demonstration) -> np.ndarray:
    """Visit counts along the demo future; total mass equals the horizon."""
    counts = np.zeros((demo.world.rows, demo.world.cols))
    np.add.at(counts, (demo.future[:, 0], demo.future[:, 1]), 1.0)
    return counts


def demo_stack(net, demo: Demonstration):
    """The 30-channel input stack that `forward` feeds to stage 2 for one demo;
    BC and IRL share it because both run `forward`."""
    return forward(net, demo)[1].stack


def train_step(net, batch, config: TrainConfig, iteration: int):
    """Batch gradient (already divided by batch size) plus the report row.
    Parameters are left untouched; the caller applies the update.

    Every demo runs forward, the batch plans in one value_iteration and one
    compute_svf call, then each demo runs backward, in batch order."""
    batch = list(batch)
    if not batch:
        raise ConfigError("empty training batch")
    if net.kind == "action_head":
        raise ConfigError("the IRL loop plans on a reward map; an action_head net has none")
    outputs = [forward(net, demo) for demo in batch]
    for k, (reward, _) in enumerate(outputs):
        if not np.isfinite(reward).all():
            raise ConvergenceError(f"batch demo {k}: reward map contains non-finite values")
    plans = value_iteration([reward for reward, _ in outputs], gamma=config.gamma,
                            epsilon=config.epsilon, beta=training_beta(config, iteration))
    expected = compute_svf(plans, [demo.future[0] for demo in batch],
                           [demo.horizon for demo in batch])

    total = {name: np.zeros_like(p) for name, p in net.parameters().items()}
    nlls, l1s = [], []
    for demo, (_, acts), policy, mu_expected in zip(batch, outputs, plans, expected):
        diff = demo_svf(demo) - mu_expected
        grads = backward(net, acts, -diff)
        for name in total:
            total[name] += grads[name]
        nlls.append(nll(policy, demo))
        l1s.append(float(np.abs(diff).sum()))
    for name in total:
        total[name] /= len(batch)
    bad = [name for name, g in total.items() if not np.isfinite(g).all()]
    if bad:
        raise ConvergenceError(f"summed gradient is not finite in {', '.join(bad)}")
    grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in total.values())))
    report = {
        "iteration": iteration,
        "nll": float(np.mean(nlls)),
        "grad_norm": grad_norm,
        "vi_sweeps": float(np.mean([policy.sweeps for policy in plans])),
        "svf_l1": float(np.mean(l1s)),
    }
    return total, report


def _save(path, store, net, config: TrainConfig, iteration: int) -> None:
    meta = {"arch": net.arch_meta(), "config": configio.to_dict(config)}
    save_checkpoint(path, store, meta=meta, iteration=iteration)


def train(demos, config: TrainConfig, out_dir=None, resume=None,
          kind: str = "two_stage"):
    """Run the IRL loop on a reward net of `kind` (`two_stage`, or `env_only`
    for the ablation without kinematics). Returns (net, store, report rows,
    timing rows).

    With an output directory, checkpoints land there every checkpoint_every
    iterations and at the end. Resuming continues the iteration counter and
    the annealing schedule from the stored iteration + 1.
    """
    demos = list(demos)
    if not demos:
        raise ConfigError("cannot train on an empty dataset")
    if config.augment:
        demos = [rot for demo in demos for rot in augment_rotations(demo)]

    if resume is not None:
        store, meta, stored_iter = load_checkpoint(resume)
        net = net_from_store(meta, store.params, kind)
        store.learning_rate = config.learning_rate
        start_iter = stored_iter + 1
    else:
        net = build_net(kind, seed=config.seed)
        store = ParameterStore.create(net.parameters(), learning_rate=config.learning_rate)
        start_iter = 1

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    reports, timings = [], []
    last_iter = start_iter - 1
    for i in range(start_iter, start_iter + config.iterations):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)))
        picks = rng.choice(len(demos), size=config.batch_size,
                           replace=config.batch_size > len(demos))
        batch = [demos[int(j)] for j in picks]
        started = time.perf_counter()
        try:
            grads, row = train_step(net, batch, config, i)
        except ConvergenceError as e:
            raise ConvergenceError(f"training iteration {i}: {e}") from e
        update_parameters(store, grads)
        reports.append(row)
        timings.append({"iteration": i, "seconds": time.perf_counter() - started})
        last_iter = i
        if out_dir is not None and config.checkpoint_every > 0 \
                and i % config.checkpoint_every == 0:
            _save(out_dir / f"checkpoint_{i:05d}.ckpt", store, net, config, i)
    if out_dir is not None:
        _save(out_dir / "checkpoint.ckpt", store, net, config, last_iter)
    return net, store, reports, timings


def write_report(rows, path, columns=REPORT_COLUMNS) -> None:
    """One CSV line per row: the first column as an integer, the rest as
    round-trip floats."""
    first, *rest = columns
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([str(row[first])] + [f"{row[c]:.17g}" for c in rest]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_timings(rows, path) -> None:
    lines = ["iteration,seconds"]
    for row in rows:
        lines.append(f"{row['iteration']},{row['seconds']:.6f}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
