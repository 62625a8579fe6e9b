"""Demonstration datasets on disk.

Layout: a directory with `manifest.json` plus `train/` and `test/` record files.
Each record is self-contained and little-endian:

    u32 rows, u32 cols, f64 resolution
    5 * rows * cols   f32 env channels, row-major
    u32 n_past, then n_past * (f64 t, f64 x, f64 y)
    u32 horizon (at least 2), then horizon * (u32 row, u32 col)
    f64 expert speed, i64 seed, u8 tag code

Records are decoded through `config.Reader`, so a truncated or corrupt one is
a ConfigError naming its path. The manifest is renamed into place last, after
every record, so a dataset whose generation stopped partway does not load.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import config as configio
from .errors import ConfigError
from .kinematics import PastTrack
from .mdp import ENV_CHANNEL_NAMES, GridWorld
from .synthetic import (DEFAULT_HORIZON_MAX, HORIZON_MAX, HORIZON_MIN, LAYOUTS, TAG_CODES, TAGS,
                        Demonstration, balance_dataset, balance_fractions, generate_demonstrations,
                        generate_world)

FORMAT_NAME = "meirl-demos-v1"
EXPERT_CHUNK = 16  # experts planned per value_iteration call during generation


@dataclass
class GenerateConfig:
    n_demos: int = 660
    split: float = 0.9
    seed: int = 0
    rows: int = 32
    cols: int = 32
    resolution: float = 1.0
    layouts: tuple = ("straight", "curve", "tee", "cross")
    trail_width: int = 1
    speeds: tuple = (2.0, 8.0)
    horizon_min: int = HORIZON_MIN
    horizon_max: int = DEFAULT_HORIZON_MAX
    balance: Optional[dict] = None

    def __post_init__(self):
        if self.n_demos < 1:
            raise ConfigError("n_demos must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.split <= 1.0:
            raise ConfigError(f"split must be in (0, 1], got {self.split}")
        if not self.layouts:
            raise ConfigError("need at least one layout")
        bad = sorted(set(self.layouts) - set(LAYOUTS))
        if bad:
            raise ConfigError(f"unknown layouts: {bad}")
        if not (HORIZON_MIN <= self.horizon_min <= self.horizon_max <= HORIZON_MAX):
            raise ConfigError(f"horizon range must satisfy "
                              f"{HORIZON_MIN} <= min <= max <= {HORIZON_MAX}")
        if not self.speeds or not all(isinstance(s, (int, float)) and not isinstance(s, bool)
                                      and 0 < s < math.inf for s in self.speeds):
            raise ConfigError(f"speeds must be a nonempty list of finite positive numbers, "
                              f"got {self.speeds!r}")
        if self.balance is not None:
            balance_fractions(self.balance)


def split_counts(n: int, split: float) -> int:
    return int(round(n * split))


def _expert_request(config: GenerateConfig, index: int) -> dict:
    """World and expert settings of demo `index`, from its own seeded generator."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))
    layout = config.layouts[rng.integers(len(config.layouts))]
    speed = float(config.speeds[rng.integers(len(config.speeds))])
    horizon = int(rng.integers(config.horizon_min, config.horizon_max + 1))
    world_seed = int(rng.integers(2**31 - 1))
    demo_seed = int(rng.integers(2**31 - 1))
    world = generate_world(seed=world_seed, rows=config.rows, cols=config.cols,
                           resolution=config.resolution, layout=layout,
                           trail_width=config.trail_width)
    return dict(world=world, speed=speed, seed=demo_seed, horizon=horizon)


def generate_dataset(config: GenerateConfig):
    """All demos for one config, shuffled and split. Deterministic per seed;
    the experts plan EXPERT_CHUNK at a time."""
    demos = []
    for first in range(0, config.n_demos, EXPERT_CHUNK):
        last = min(first + EXPERT_CHUNK, config.n_demos)
        demos.extend(generate_demonstrations(
            [_expert_request(config, i) for i in range(first, last)]))
    if config.balance is not None:
        demos = balance_dataset(demos, config.balance)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(config.n_demos,)))
    perm = shuffle_rng.permutation(len(demos))
    demos = [demos[int(j)] for j in perm]
    n_train = split_counts(len(demos), config.split)
    return demos[:n_train], demos[n_train:]


# ---------------------------------------------------------------------------
# record IO

def save_demo(path, demo: Demonstration) -> None:
    """The one write outside `config.write_file`: a record is only ever read
    through a manifest, which `save_dataset` removes first and writes last."""
    world = demo.world
    tri = np.column_stack([demo.past.t, demo.past.xy]).astype("<f8")
    Path(path).write_bytes(b"".join([
        struct.pack("<IId", world.rows, world.cols, world.resolution),
        np.ascontiguousarray(world.env, dtype="<f4").tobytes(),
        struct.pack("<I", len(tri)), tri.tobytes(),
        struct.pack("<I", len(demo.future)),
        np.ascontiguousarray(demo.future, dtype="<u4").tobytes(),
        struct.pack("<dqB", demo.expert_speed, demo.seed, TAG_CODES[demo.tag])]))


def load_demo(path) -> Demonstration:
    try:
        return _decode_demo(configio.Reader(Path(path).read_bytes(), "demo record field"))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _decode_demo(reader: configio.Reader) -> Demonstration:
    rows, cols, resolution = reader.unpack("<IId")
    env = reader.array("<f4", (len(ENV_CHANNEL_NAMES), rows, cols))
    (n,) = reader.unpack("<I")
    tri = reader.array("<f8", (n, 3))
    (h,) = reader.unpack("<I")
    future = reader.array("<u4", (h, 2))
    speed, seed, tag_code = reader.unpack("<dqB")
    reader.end()
    if tag_code >= len(TAGS):
        raise ConfigError(f"bad tag code {tag_code}")
    world = GridWorld(rows=rows, cols=cols, resolution=resolution, env=env)
    past = PastTrack(t=tri[:, 0], xy=tri[:, 1:])
    return Demonstration(world=world, past=past, future=future,
                         expert_speed=speed, seed=seed, tag=TAGS[tag_code])


def save_dataset(root, train, test, config: GenerateConfig, overwrite: bool = False) -> dict:
    root = Path(root)
    manifest_path = root / "manifest.json"
    if manifest_path.exists() and not overwrite:
        raise ConfigError(f"dataset already exists at {root} (manifest.json present)")
    # without a manifest, a write that stops partway leaves no loadable mix of
    # new and old records behind; dump_json renames the manifest into place last.
    # Old records go before any new one is written, so none outlives its manifest.
    manifest_path.unlink(missing_ok=True)
    for stale in [*root.glob("train/demo_*.bin"), *root.glob("test/demo_*.bin")]:
        stale.unlink()
    for split_name, demos in (("train", train), ("test", test)):
        sub = root / split_name
        sub.mkdir(parents=True, exist_ok=True)
        for i, demo in enumerate(demos):
            save_demo(sub / f"demo_{i:05d}.bin", demo)
    manifest = {
        "format": FORMAT_NAME,
        "rows": config.rows,
        "cols": config.cols,
        "resolution": config.resolution,
        "seed": config.seed,
        "split": config.split,
        "n_train": len(train),
        "n_test": len(test),
        "tag_counts": {name: dict(sorted(Counter(d.tag for d in demos).items()))
                       for name, demos in (("train", train), ("test", test))},
        "config": configio.to_dict(config),
    }
    configio.dump_json(manifest_path, manifest)
    return manifest


def load_dataset(root):
    root = Path(root)
    manifest = configio.load_json(root / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ConfigError(f"unrecognized dataset format in {root}")
    out = {}
    missing = []
    for split_name in ("train", "test"):
        n = manifest.get(f"n_{split_name}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ConfigError(f"manifest in {root} must give n_{split_name} as a "
                              f"nonnegative integer, got {n!r}")
        paths = [root / split_name / f"demo_{i:05d}.bin" for i in range(n)]
        missing.extend(str(p) for p in paths if not p.exists())
        out[split_name] = paths
    if missing:
        raise ConfigError(f"dataset records missing: {missing}")
    train = [load_demo(p) for p in out["train"]]
    test = [load_demo(p) for p in out["test"]]
    return train, test, manifest
