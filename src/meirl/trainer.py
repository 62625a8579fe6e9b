"""Training loops: max-ent IRL for the reward nets, behavior cloning (BC) for the action head.

Each IRL iteration samples a demonstration batch, plans under the current
reward with the softmax policy pi ~ exp Q, and ascends the visitation-matching
gradient: the derivative of the objective with respect to the reward map is
the demo visitation count minus the expected visitation under the planner, so
the descent direction handed to Adam is its negation. Each BC epoch descends
the cross-entropy of the demos' actions and early-stops on a validation split.
Both sum per-demo gradients in order (`mean_gradient`), keeping runs bitwise
reproducible. A net output or a per-demo gradient that is not finite stops
the run with the demo's position, and a summed gradient that is not finite
stops it before the parameter update.

Wall-clock timings go to a separate file from the per-iteration report, so the
report CSV is byte-identical across runs of the same config and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as configio
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, ConvergenceError
from .mdp import compute_svf, softmax, value_iteration
from .metrics import nll
from .nn import ParameterStore, update_parameters
from .reward_net import backward, build_net, forward, net_from_store
from .synthetic import Demonstration, augment_rotations

REPORT_COLUMNS = ("iteration", "nll", "grad_norm", "vi_sweeps", "svf_l1")
BC_REPORT_COLUMNS = ("epoch", "train_loss", "val_loss")


@dataclass
class TrainConfig:
    iterations: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    checkpoint_every: int = 50
    augment: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        _check_learning_rate(self.learning_rate)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.checkpoint_every < 0:  # 0 keeps only the final checkpoint
            raise ConfigError(f"checkpoint_every must be nonnegative, got {self.checkpoint_every}")


@dataclass
class BcConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    val_split: float = 0.2
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if not 0 <= self.val_split < 1:
            raise ConfigError("validation split must be in [0, 1)")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        _check_learning_rate(self.learning_rate)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def _check_learning_rate(lr: float) -> None:
    if not 0 < lr < math.inf:  # NaN too
        raise ConfigError(f"learning rate must be positive and finite, got {lr}")


def demo_svf(demo: Demonstration) -> np.ndarray:
    """Visit counts along the demo future; total mass equals the horizon."""
    counts = np.zeros((demo.world.rows, demo.world.cols))
    np.add.at(counts, (demo.future[:, 0], demo.future[:, 1]), 1.0)
    return counts


def demo_stack(net, demo: Demonstration):
    """The 30-channel input stack that `forward` feeds to stage 2 for one demo;
    BC and IRL share it because both run `forward`."""
    return forward(net, demo)[1].stage2[0]


def _not_finite(grads: dict) -> str:
    return ", ".join(name for name, g in grads.items() if not np.isfinite(g).all())


def mean_gradient(net, per_demo_grads, label: str) -> dict:
    """Sum per-demo gradient dicts in order, one at a time, and divide by their
    count. A demo's gradient that is not finite stops the sum, naming it as
    `label` and its position; a mean that is not finite (an overflow in the
    sum) stops it too."""
    total = {name: np.zeros_like(p) for name, p in net.parameters().items()}
    for count, grads in enumerate(per_demo_grads, 1):
        bad = _not_finite(grads)
        if bad:
            raise ConvergenceError(f"{label} {count - 1}: gradient is not finite in {bad}")
        for name in total:
            total[name] += grads[name]
    for name in total:
        total[name] /= count
    bad = _not_finite(total)
    if bad:
        raise ConvergenceError(f"summed gradient is not finite in {bad}")
    return total


def train_step(net, batch, iteration: int):
    """Batch gradient (already divided by batch size) plus the report row.
    Parameters are left untouched; the caller applies the update.

    Every demo runs forward, the batch plans in one value_iteration and one
    compute_svf call, then each demo runs backward, in batch order. The
    planner has no temperature (the net learns the reward's scale), so
    `iteration` only labels the report row."""
    batch = list(batch)
    if not batch:
        raise ConfigError("empty training batch")
    if net.kind == "action_head":
        raise ConfigError("the IRL loop plans on a reward map; an action_head net has none")
    outputs = [forward(net, demo) for demo in batch]
    for k, (reward, _) in enumerate(outputs):
        if not np.isfinite(reward).all():
            raise ConvergenceError(f"batch demo {k}: reward map contains non-finite values")
    plans = value_iteration([reward for reward, _ in outputs])
    expected = compute_svf(plans, [demo.start for demo in batch],
                           [demo.horizon for demo in batch])

    nlls, l1s = [], []

    def per_demo():
        for demo, (_, acts), policy, mu_expected in zip(batch, outputs, plans, expected):
            diff = demo_svf(demo) - mu_expected
            nlls.append(nll(policy, demo))
            l1s.append(float(np.abs(diff).sum()))
            yield backward(net, acts, -diff)

    total = mean_gradient(net, per_demo(), "batch demo")
    grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in total.values())))
    report = {
        "iteration": iteration,
        "nll": float(np.mean(nlls)),
        "grad_norm": grad_norm,
        "vi_sweeps": float(np.mean([policy.sweeps for policy in plans])),
        "svf_l1": float(np.mean(l1s)),
    }
    return total, report


def _save(out_dir, name: str, store, net, config, iteration: int) -> None:
    """Checkpoint `name` in `out_dir`, which the first save creates."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    meta = {"arch": net.arch_meta(), "config": configio.to_dict(config)}
    save_checkpoint(Path(out_dir) / name, store, meta=meta, iteration=iteration)


def train(demos, config: TrainConfig, out_dir=None, resume=None,
          kind: str = "two_stage"):
    """Run the IRL loop on a reward net of `kind` (`two_stage`, or `env_only`
    for the ablation without kinematics). Returns (net, store, report rows,
    timing rows).

    With an output directory, checkpoints land there every checkpoint_every
    iterations and at the end. Resuming continues the iteration counter from
    the stored iteration + 1.
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

    reports, timings = [], []
    for i in range(start_iter, start_iter + config.iterations):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)))
        picks = rng.choice(len(demos), size=config.batch_size,
                           replace=config.batch_size > len(demos))
        batch = [demos[int(j)] for j in picks]
        started = time.perf_counter()
        try:
            # a diverging net overflows here; the non-finite guards are its one report
            with np.errstate(over="ignore", invalid="ignore"):
                grads, row = train_step(net, batch, i)
                update_parameters(store, grads)
        except ConvergenceError as e:
            raise ConvergenceError(f"training iteration {i}: {e}") from e
        reports.append(row)
        timings.append({"iteration": i, "seconds": time.perf_counter() - started})
        if out_dir is not None and config.checkpoint_every > 0 \
                and i % config.checkpoint_every == 0:
            _save(out_dir, f"checkpoint_{i:05d}.ckpt", store, net, config, i)
    if out_dir is not None:
        _save(out_dir, "checkpoint.ckpt", store, net, config,
              start_iter + config.iterations - 1)
    return net, store, reports, timings


def _bc_loss(net, demo: Demonstration, position: str):
    """Mean cross-entropy of the demo's actions under the net's logits, its
    gradient with respect to the logits, and the forward activations. Non-finite
    logits or an infinite loss stop the run, naming the demo's `position`."""
    logits, acts = forward(net, demo)
    if not np.isfinite(logits).all():
        raise ConvergenceError(f"{position}: action logits contain non-finite values")
    probs = softmax(logits, axis=0)
    actions = demo.actions
    n_pairs = len(actions)
    loss = 0.0
    grad_logits = np.zeros_like(logits)
    for a, (r, c) in zip(actions, demo.future[:-1]):
        if probs[a, r, c] == 0.0:  # the loss would be infinite
            raise ConvergenceError(f"{position}: a demo action has probability 0")
        loss -= math.log(probs[a, r, c])
        grad_logits[:, r, c] += probs[:, r, c] / n_pairs
        grad_logits[a, r, c] -= 1.0 / n_pairs
    return loss / n_pairs, grad_logits, acts


def _bc_demo_grads(net, demo: Demonstration, k: int, losses: list) -> dict:
    # a function of its own, so the activations are freed before the next demo
    loss, grad_logits, acts = _bc_loss(net, demo, f"training demo {k}")
    losses.append(loss)
    return backward(net, acts, grad_logits)


def bc_train(demos, config: BcConfig, out_dir=None):
    """Cross-entropy training of the action head, early-stopped on validation
    loss (on the training split when the dataset is too small to split).

    Returns (net, report rows, timing rows, (kept epoch, its validation loss)).
    The net holds the weights of the kept epoch, the best on validation (epoch
    0 is the initialization), and so does `checkpoint.ckpt` in `out_dir`."""
    demos = list(demos)
    if not demos:
        raise ConfigError("cannot clone from an empty dataset")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0,)))
    order = rng.permutation(len(demos))
    n_val = int(round(len(demos) * config.val_split))
    if len(demos) - n_val < 1:
        n_val = 0
    val = [demos[int(i)] for i in order[:n_val]]
    fit = [demos[int(i)] for i in order[n_val:]]

    net = build_net("action_head", seed=config.seed)
    store = ParameterStore.create(net.parameters(), learning_rate=config.learning_rate)
    rows, timings, best_val, stale = [], [], math.inf, 0
    for epoch in range(config.epochs + 1):  # epoch 0 scores the initialization
        started, losses = time.perf_counter(), []
        try:
            # a diverging net overflows here; the non-finite guards are its one report
            with np.errstate(over="ignore", invalid="ignore"):
                if epoch:
                    update_parameters(store, mean_gradient(net, (
                        _bc_demo_grads(net, demo, k, losses) for k, demo in enumerate(fit)),
                        "training demo"))
                val_loss = float(np.mean([_bc_loss(net, demo, f"validation demo {k}")[0]
                                          for k, demo in enumerate(val or fit)]))
        except ConvergenceError as e:
            raise ConvergenceError(f"epoch {epoch}: {e}") from e
        if epoch:
            rows.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                         "val_loss": val_loss})
            timings.append({"epoch": epoch, "seconds": time.perf_counter() - started})
        if val_loss < best_val - 1e-6:
            best_val, kept, stale = val_loss, epoch, 0
            best = {k: v.copy() for k, v in net.parameters().items()}
        else:
            stale += 1
            if stale >= config.patience:
                break
    # hand back the weights that scored best on validation
    params = net.parameters()
    for name in params:
        params[name][...] = best[name]
    if out_dir is not None:
        _save(out_dir, "checkpoint.ckpt", store, net, config, kept)
    return net, rows, timings, (kept, best_val)


def write_report(rows, path, columns=REPORT_COLUMNS) -> None:
    """One CSV line per row: the first column as an integer, the rest as
    round-trip floats."""
    first, *rest = columns
    configio.write_csv(path, columns, ([row[first]] + [f"{row[c]:.17g}" for c in rest]
                                       for row in rows))


def write_timings(rows, path, counter: str = "iteration") -> None:
    """One CSV line per row: the loop counter and the row's wall time."""
    configio.write_csv(path, (counter, "seconds"),
                       ((row[counter], f"{row['seconds']:.6f}") for row in rows))
