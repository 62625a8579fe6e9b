"""Command line surface: generate | train | predict | eval.

Each subcommand's settings are the fields of one config dataclass. A setting
comes from, in rising precedence: the dataclass default, the optional
`--config` JSON file (unknown keys are rejected), and the flag whose dest
names the field, if that flag was given. Every run writes the fully-resolved
config next to its outputs so results are reproducible from (config, seed)
alone. The dataset directory is never written to after generation.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as configio
from .baselines import bc_policy, ekf_forecast_cells
from .dataset import GenerateConfig, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, ConvergenceError
from .maps import save_map_csv, save_map_pgm
from .mdp import (GridWorld, cells_to_xy, compute_svf, sample_trajectories, state_distribution,
                  uniform_policy, value_iteration)
from .metrics import (export_csv, export_json, hausdorff, mean_sampled_hd, nll, table_row,
                      terminal_entropy)
from .reward_net import forward, load_net
from .synthetic import TAGS
from .trainer import BcConfig, TrainConfig, bc_train, train


# ---------------------------------------------------------------------------
# the method tables

# every method, in the order of the table's rows
METHOD_ORDER = ("ekf", "bc", "random", "irl_nokin", "ours")
# the net each trainable method fits; train builds it, load_net requires it
METHOD_KIND = {"ours": "two_stage", "irl_nokin": "env_only", "bc": "action_head"}
# the eval flag that names each trainable method's checkpoint
_CKPT_ARG = {"ours": "checkpoint", "irl_nokin": "checkpoint_nokin",
             "bc": "checkpoint_bc"}


# ---------------------------------------------------------------------------
# config plumbing

def _fields(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def _resolve(cls, args):
    """The `cls` config: the --config file's object, overlaid by every given
    flag whose dest is a field of `cls` (parsers leave flags not given out of
    the namespace)."""
    data = {}
    if args.config is not None:
        data = configio.load_json(args.config)
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    data.update((name, getattr(args, name)) for name in _fields(cls) if name in args)
    return configio.from_dict(cls, data)


def _names(raw: str) -> tuple:
    """A comma-separated list flag as a tuple of names."""
    return tuple(s.strip() for s in raw.split(","))


def _numbers(raw: str) -> tuple:
    """A comma-separated list flag as a tuple of floats."""
    return tuple(float(s) for s in _names(raw))


def _write_resolved(out_dir: Path, command: str, payload: dict) -> None:
    configio.dump_json(out_dir / "resolved_config.json",
                       {"command": command, **payload})


# ---------------------------------------------------------------------------
# generate

def _balance(raw: str):
    if raw == "none":
        return None
    if raw == "equal":
        return {tag: 1.0 / len(TAGS) for tag in TAGS}
    if raw.lstrip().startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as e:
            raise argparse.ArgumentTypeError(f"bad balance spec: {e}") from e
    raise argparse.ArgumentTypeError(
        f"balance must be 'equal', 'none', or a JSON object of tag fractions, got {raw!r}")


def cmd_generate(args) -> None:
    cfg = _resolve(GenerateConfig, args)
    out = Path(args.out)
    train_demos, test_demos = generate_dataset(cfg)
    manifest = save_dataset(out, train_demos, test_demos, cfg, overwrite=args.overwrite)
    _write_resolved(out, "generate", {"out": str(out),
                                      "config": configio.to_dict(cfg)})
    print(f"wrote {manifest['n_train']} train / {manifest['n_test']} test "
          f"demos to {out}")
    for split_name in ("train", "test"):
        counts = manifest["tag_counts"][split_name]
        per_tag = "  ".join(f"{tag}={counts.get(tag, 0)}" for tag in TAGS)
        print(f"  {split_name}: {per_tag}")


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> None:
    if args.method == "bc":
        if args.resume is not None:
            raise ConfigError("behavior cloning does not support --resume")
        # the flags only the IRL loop reads; --iterations counts BC epochs
        given = [f"--{name.replace('_', '-')}" for name in _fields(TrainConfig)
                 if name not in _fields(BcConfig) and name != "iterations" and name in args]
        if given:
            raise ConfigError(f"behavior cloning does not take {', '.join(given)}")
        if "iterations" in args:
            args.epochs = args.iterations
        cfg = _resolve(BcConfig, args)
    else:
        cfg = _resolve(TrainConfig, args)

    train_demos, _, _ = load_dataset(args.dataset)
    out = Path(args.out)
    if args.method == "bc":
        _, reports, _, (kept, best) = bc_train(train_demos, cfg, out_dir=out)
        summary = (f"behavior cloning ran {len(reports)} epochs, kept epoch {kept}, "
                   f"best validation loss {best:.4f}")
    else:
        # train loads --resume before it creates the output directory
        _, _, reports, _ = train(train_demos, cfg, out_dir=out, resume=args.resume,
                                 kind=METHOD_KIND[args.method])
        summary = (f"trained iterations {reports[0]['iteration']}..."
                   f"{reports[-1]['iteration']}, final training NLL "
                   f"{reports[-1]['nll']:.4f}, final SVF L1 gap "
                   f"{reports[-1]['svf_l1']:.4f}" if reports else
                   "no iterations requested; checkpoint holds the initialization")
    _write_resolved(out, "train", {"method": args.method,
                                   "dataset": str(args.dataset), "out": str(out),
                                   "resume": args.resume and str(args.resume),
                                   "config": configio.to_dict(cfg)})
    print(summary)
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")


# ---------------------------------------------------------------------------
# predict

@dataclass
class PredictConfig:
    method: str = "ours"
    demo: int = 0
    which: str = "test"
    samples: int = 100
    seed: int = 0
    zero_lidar: bool = False

    def __post_init__(self):
        if self.method not in METHOD_ORDER:
            raise ConfigError(f"predict method must be one of {'|'.join(METHOD_ORDER)}, "
                              f"got {self.method!r}")
        if self.which not in ("train", "test"):
            raise ConfigError("which must be 'train' or 'test'")
        if self.demo < 0:
            raise ConfigError("demo index must be nonnegative")
        if self.samples < 0:
            raise ConfigError("samples must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def _constant_env_world(world: GridWorld) -> GridWorld:
    # Fig-style ablation input: every channel flattened to its spatial mean
    env = np.empty_like(world.env)
    for c in range(env.shape[0]):
        env[c] = world.env[c].mean()
    return GridWorld(rows=world.rows, cols=world.cols,
                     resolution=world.resolution, env=env)


def forecast(net, scenes):
    """Forecast policies for a list of scenes (or demonstrations), planned in
    one value_iteration call on the net's reward maps, as training plans them,
    plus those maps when the net defines them (else None). With no net, the
    `random` method's uniform policies."""
    if net is None:
        return [uniform_policy(*scene.world.shape) for scene in scenes], None
    if net.kind == "action_head":  # the cloning head is a policy; no planner runs
        return [bc_policy(net, scene) for scene in scenes], None
    rewards = [forward(net, scene)[0] for scene in scenes]
    return list(value_iteration(rewards)), rewards


def _ekf_cells(demos, names) -> list:
    """`ekf_forecast_cells` over the demos, a failure naming the method and the
    failing demo, `names[position]`."""
    try:
        return ekf_forecast_cells(demos)
    except (ValueError, ConvergenceError) as e:
        raise type(e)(f"ekf, {names[e.position]}: {e}") from e


def cmd_predict(args) -> None:
    cfg = _resolve(PredictConfig, args)

    train_demos, test_demos, _ = load_dataset(args.dataset)
    pool = test_demos if cfg.which == "test" else train_demos
    if cfg.demo >= len(pool):
        raise ConfigError(f"demo index {cfg.demo} out of range, "
                          f"{cfg.which} split holds {len(pool)} demos")
    demo = pool[cfg.demo]
    if cfg.zero_lidar:
        demo = dataclasses.replace(demo, world=_constant_env_world(demo.world))
    net = None
    if cfg.method in METHOD_KIND:
        if args.checkpoint is None:
            raise ConfigError(f"--checkpoint is required for method {cfg.method!r}")
        net = load_net(args.checkpoint, METHOD_KIND[cfg.method])[0]

    start, horizon = demo.start, demo.horizon
    # every output is computed before --out is made, so a failed forecast leaves none
    maps, tables = {}, {}
    summary = {"method": cfg.method, "horizon": horizon, "start": list(start)}
    if cfg.method == "ekf":
        (cells,) = _ekf_cells([demo], [f"{cfg.which} demo {cfg.demo}"])
        xy = cells_to_xy(cells, demo.world.resolution)
        tables["trajectory.csv"] = (("step", "row", "col", "x", "y"), [
            (k, r, c, f"{x:.17g}", f"{y:.17g}")
            for k, ((r, c), (x, y)) in enumerate(zip(cells.tolist(), xy.tolist()))])
        summary["hd"] = hd = hausdorff(xy, cells_to_xy(demo.future, demo.world.resolution))
        message = f"EKF forecast written; HD to the demonstration {hd:.3f} m"
    else:
        (policy,), rewards = forecast(net, [demo])
        if rewards is not None:
            maps["reward"] = rewards[0]
        svf = compute_svf([policy], [start], [horizon])[0]
        if abs(float(svf.sum()) - horizon) > 1e-6:
            raise ConvergenceError(
                f"visitation mass {svf.sum():.9f} drifted from horizon {horizon}")
        maps["svf"] = svf
        if cfg.samples > 0:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
            cells = sample_trajectories(policy, start, horizon, cfg.samples, rng).ravel()
            table = np.column_stack([*np.divmod(np.arange(cells.size), horizon),
                                     *np.divmod(cells, demo.world.cols)])
            tables["samples.csv"] = (("sample", "step", "row", "col"), table.tolist())
        entropy = terminal_entropy(state_distribution([policy], [start], [horizon])[0])
        summary.update(svf_mass=float(svf.sum()), terminal_entropy=entropy,
                       demo_nll=nll(policy, demo), zero_lidar=cfg.zero_lidar)
        message = f"prediction written; terminal entropy {entropy:.3f} nats"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, values in maps.items():
        save_map_csv(out / f"{name}.csv", values)
        save_map_pgm(out / f"{name}.pgm", values)
    for name, (columns, rows) in tables.items():
        configio.write_csv(out / name, columns, rows)
    configio.dump_json(out / "summary.json", summary)
    _write_resolved(out, "predict", {
        "dataset": str(args.dataset), "out": str(out),
        "checkpoint": args.checkpoint and str(args.checkpoint),
        "config": configio.to_dict(cfg)})
    print(message)


# ---------------------------------------------------------------------------
# eval

@dataclass
class EvalConfig:
    methods: tuple = METHOD_ORDER
    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ConfigError("need at least one method to evaluate")
        bad = sorted(set(self.methods) - set(METHOD_ORDER))
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate methods requested")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def _demo_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=base,
                                      spawn_key=(index,)).generate_state(1)[0])


def _eval_method(method, demos, cfg: EvalConfig, nets):
    """The method's table row over the demos, scored in order."""
    if method == "ekf":
        forecasts = _ekf_cells(demos, [f"test demo {i}" for i in range(len(demos))])
        return table_row("ekf", [
            hausdorff(cells_to_xy(cells, demo.world.resolution),
                      cells_to_xy(demo.future, demo.world.resolution))
            for cells, demo in zip(forecasts, demos)])

    policies = forecast(nets.get(method), demos)[0]
    last = state_distribution(policies, [demo.start for demo in demos],
                              [demo.horizon for demo in demos])
    hds = [mean_sampled_hd(policy, demo, n_samples=cfg.samples, seed=_demo_seed(cfg.seed, i))
           for i, (demo, policy) in enumerate(zip(demos, policies))]
    nlls = [nll(policy, demo) for demo, policy in zip(demos, policies)]
    return table_row(method, hds, nlls, [terminal_entropy(dist) for dist in last])


def cmd_eval(args) -> None:
    cfg = _resolve(EvalConfig, args)

    # every required artifact is checked before any work happens
    missing = []
    if not (Path(args.dataset) / "manifest.json").is_file():
        missing.append(f"dataset manifest at {args.dataset}")
    paths = {m: getattr(args, _CKPT_ARG[m]) for m in cfg.methods if m in _CKPT_ARG}
    for method, path in paths.items():
        if path is None:
            missing.append(f"--{_CKPT_ARG[method].replace('_', '-')} for method {method!r}")
        elif not Path(path).is_file():
            missing.append(f"checkpoint for method {method!r} at {path}")
    if missing:
        raise ConfigError("missing artifacts: " + "; ".join(missing))

    _, test_demos, _ = load_dataset(args.dataset)
    if not test_demos:
        raise ConfigError("the dataset has no test demonstrations to evaluate")

    nets = {method: load_net(path, METHOD_KIND[method])[0] for method, path in paths.items()}

    rows = [_eval_method(m, test_demos, cfg, nets) for m in METHOD_ORDER if m in cfg.methods]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_csv(rows, out / "table.csv")
    export_json(rows, out / "table.json")
    _write_resolved(out, "eval", {
        "dataset": str(args.dataset), "out": str(out),
        "checkpoints": {m: getattr(args, a) and str(getattr(args, a))
                        for m, a in _CKPT_ARG.items()},
        "config": configio.to_dict(cfg)})

    for row in rows:
        nll_txt = "N.A." if row["nll"] is None else f"{row['nll']:.4f}"
        print(f"{row['method']:>10}:  NLL {nll_txt:>8}   HD {row['hd']:.4f} m")
    print(f"table: {out / 'table.csv'}")


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meirl",
        description="Max-ent deep IRL trajectory forecasting on grid worlds")
    sub = p.add_subparsers(dest="command", required=True)
    # a flag not given leaves its dest out of the namespace, so that _resolve
    # overlays exactly the given flags on the --config file
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    g = command("generate", help="synthesize a demonstration dataset")
    g.add_argument("--out", required=True, help="dataset directory to create")
    g.add_argument("--config", default=None, help="JSON file of generation settings")
    g.add_argument("--demos", type=int, dest="n_demos")
    g.add_argument("--split", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--rows", type=int)
    g.add_argument("--cols", type=int)
    g.add_argument("--resolution", type=float)
    g.add_argument("--layouts", type=_names, help="comma-separated layout names")
    g.add_argument("--trail-width", type=int, dest="trail_width")
    g.add_argument("--speeds", type=_numbers,
                   help="comma-separated expert speeds, one drawn per demo")
    g.add_argument("--horizon-min", type=int, dest="horizon_min")
    g.add_argument("--horizon-max", type=int, dest="horizon_max")
    g.add_argument("--balance", type=_balance,
                   help="'equal', 'none' or a JSON object of tag fractions")
    g.add_argument("--overwrite", action="store_true", default=False)
    g.set_defaults(fn=cmd_generate)

    t = command("train", help="fit a model on a dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--method", choices=tuple(METHOD_KIND), default="ours")
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--iterations", type=int,
                   help="IRL iterations, or epochs for --method bc")
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--learning-rate", type=float, dest="learning_rate")
    t.add_argument("--seed", type=int)
    # runs are serial; "--workers 1" is still accepted so existing command lines parse
    t.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
    t.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    t.add_argument("--augment", action=argparse.BooleanOptionalAction)
    t.set_defaults(fn=cmd_train)

    pr = command("predict", help="forecast one demonstration")
    pr.add_argument("--dataset", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--checkpoint", default=None)
    pr.add_argument("--config", default=None)
    pr.add_argument("--method", choices=METHOD_ORDER)
    pr.add_argument("--demo", type=int)
    pr.add_argument("--which", choices=("train", "test"))
    pr.add_argument("--samples", type=int)
    pr.add_argument("--seed", type=int)
    pr.add_argument("--zero-lidar", action="store_true", dest="zero_lidar")
    pr.set_defaults(fn=cmd_predict)

    ev = command("eval", help="score methods on the test split")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--config", default=None)
    ev.add_argument("--checkpoint", default=None, help="trained model for method 'ours'")
    ev.add_argument("--checkpoint-nokin", default=None, dest="checkpoint_nokin")
    ev.add_argument("--checkpoint-bc", default=None, dest="checkpoint_bc")
    ev.add_argument("--methods", type=_names, help="comma-separated subset to evaluate")
    ev.add_argument("--samples", type=int)
    ev.add_argument("--seed", type=int)
    # runs are serial; "--workers 1" is still accepted so existing command lines parse
    ev.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
    ev.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed why; hand its code back
        return e.code
    try:
        args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConvergenceError, OSError, RuntimeError, ValueError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
