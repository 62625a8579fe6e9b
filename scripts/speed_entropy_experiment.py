#!/usr/bin/env python3
"""Compare slow- and fast-approach forecasts at a T-junction.

Loads a trained two-stage checkpoint, synthesizes two straight approaches to
the same junction that differ only in speed, as two `Scene`s (map, past track
and start cell), and reports terminal entropy and per-branch mass of each
forecast, planned by `meirl.cli.forecast` as in `predict` and `eval`. A
speed-aware model should commit to the straight-through branch when
approaching fast and hedge across both branches when approaching slowly.
"""
import argparse
from pathlib import Path

import numpy as np

from meirl.cli import forecast
from meirl.errors import ConfigError
from meirl.kinematics import PastTrack
from meirl.maps import save_map_csv, save_map_pgm
from meirl.mdp import ACTION_DELTAS, cells_to_xy, neighbors, state_distribution
from meirl.metrics import terminal_entropy
from meirl.reward_net import load_net
from meirl.synthetic import Scene, generate_world, junction_cells, trail_mask


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--world-seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--slow", type=float, default=2.0)
    p.add_argument("--fast", type=float, default=8.0)
    p.add_argument("--horizon", type=int, default=15)
    p.add_argument("--approach", type=int, default=3,
                   help="start this many cells before the junction")
    p.add_argument("--out", help="also write terminal maps here as csv/pgm")
    return p.parse_args()


def arm_cells(ahead, junction, step):
    """Trail cells walking from the junction along `step`, nearest first;
    `ahead` is the trail's neighbors map for that step."""
    r, c = int(junction[0]), int(junction[1])
    out = []
    while ahead[r, c]:
        r, c = r + step[0], c + step[1]
        out.append((r, c))
    return out


def scenario(world, approach):
    """Start cell, heading, and the three branch regions of the tee."""
    mask = trail_mask(world)
    js = junction_cells(mask)
    if len(js) != 1:
        raise ConfigError(f"world has {len(js)} junctions, need exactly 1")
    j = js[0]
    arms = {step: arm_cells(ahead, j, step)
            for step, ahead in zip(ACTION_DELTAS, neighbors(mask))}
    present = [s for s, cells in arms.items() if cells]
    if len(present) != 3:
        raise ConfigError("junction does not have exactly three arms")
    # the bar is the collinear pair; approach from its longer side
    bar = [(s, t) for s in present for t in present if s[0] == -t[0] and s[1] == -t[1]]
    if not bar:
        raise ConfigError("no collinear arm pair at the junction")
    a, b = bar[0]
    here = a if len(arms[a]) >= len(arms[b]) else b
    heading = (-here[0], -here[1])
    if len(arms[here]) < approach:
        raise ConfigError(f"approach arm only {len(arms[here])} cells long")
    start = arms[here][approach - 1]
    stem = next(s for s in present if s not in (a, b))
    return start, heading, {"straight": arms[(-here[0], -here[1])],
                            "stem": arms[stem], "behind": arms[here]}


def straight_past(start, heading, speed, resolution):
    """Eleven 10 Hz samples of a constant-speed straight approach along
    `heading` that ends at the centre of cell `start`."""
    cx, cy = cells_to_xy([start], resolution)[0]
    t = np.arange(11) * 0.1
    back = (t - t[-1]) * speed
    xy = np.stack([cx + back * heading[1], cy + back * heading[0]], axis=1)
    return PastTrack(t=t, xy=xy)


def main():
    args = parse_args()
    try:
        net = load_net(args.checkpoint, "two_stage")[0]
        world = generate_world(seed=args.world_seed, rows=args.rows, cols=args.cols,
                               layout="tee")
        start, heading, regions = scenario(world, args.approach)
    except ConfigError as e:
        raise SystemExit(f"error: {e}")
    print(f"junction scenario: start {start}, heading {heading}, "
          f"arms straight={len(regions['straight'])} stem={len(regions['stem'])}")

    speeds = {"slow": args.slow, "fast": args.fast}
    scenes = [Scene(world, straight_past(start, heading, speed, world.resolution), start)
              for speed in speeds.values()]
    starts, horizons = [start] * len(speeds), [args.horizon] * len(speeds)
    dists = state_distribution(forecast(net, scenes)[0], starts, horizons)
    entropies = {}
    for (label, speed), dist in zip(speeds.items(), dists):
        entropies[label] = terminal_entropy(dist)
        masses = {name: sum(dist[rc] for rc in cells)
                  for name, cells in regions.items()}
        print(f"{label:5s} (v={speed:g}): terminal entropy {entropies[label]:.4f}  "
              + "  ".join(f"{k} {v:.3f}" for k, v in masses.items()))
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            save_map_csv(out / f"terminal_{label}.csv", dist)
            save_map_pgm(out / f"terminal_{label}.pgm", dist)

    print(f"entropy gap (slow - fast): {entropies['slow'] - entropies['fast']:.4f}")


if __name__ == "__main__":
    main()
