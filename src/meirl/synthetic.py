"""Procedural trail worlds and expert demonstrations.

Worlds are trail networks (straight runs, bends, T and cross junctions) drawn
onto rough terrain. The trail is recoverable from the observation channels by
construction: trail cells get low height variance, off-trail cells high, with
a clean threshold between the two bands. Demonstrations are exact samples from
an annealed-softmax policy on a ground-truth reward over those same channels,
so the training data sits inside the model class the learner assumes.

Speed conditions behavior: above a normalized-speed threshold the ground truth
adds a reward ramp that climbs along the straight-ahead ray, so fast experts
press forward while slow ones spread over every trail arm. A flat bonus would
not do this: per-cell rewards are harvested equally by pacing back and forth,
which leaves forward and backward motion tied. The ramp breaks the tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .kinematics import PAST_RATE, PAST_WINDOW, KinematicContext, PastTrack, kinematic_context
from .mdp import ACTION_DELTAS, GridWorld, actions_from_cells, sample_trajectories, value_iteration

VAR_THRESHOLD = 0.06     # height-variance split between trail and rough ground
FAST_THRESHOLD = 0.5     # normalized speed above which the straight-ahead ramp applies
OFF_TRAIL_PENALTY = -2.0
RAY_RATE = 0.25          # per-cell increment of the straight-ahead ramp
MARGIN = 2               # trail inset from the border, keeps boundary clipping out of play
DEMO_BETA = 2.5
DEMO_GAMMA = 0.95        # discount of the expert's planner
DEMO_EPSILON = 1e-4      # and its value-iteration tolerance

# terrain palette: (low, high) bands drawn per cell; the two variance bands must
# not straddle VAR_THRESHOLD, so the trail stays recoverable by thresholding
TRAIL_VAR = (0.004, 0.02)
OFF_VAR = (0.15, 0.35)
TRAIL_HEIGHT = (0.02, 0.10)
OFF_HEIGHT = (0.25, 0.60)
TRAIL_RGB = (0.42, 0.36, 0.30)
OFF_RGB = (0.25, 0.55, 0.20)
RGB_JITTER = 0.04

TAGS = ("straight", "curve", "intersection")
TAG_CODES = {t: i for i, t in enumerate(TAGS)}
LAYOUTS = ("straight", "curve", "tee", "cross", "random")


@dataclass
class WorldSpec:
    """Knobs for one generated world."""

    seed: int = 0
    rows: int = 32
    cols: int = 32
    resolution: float = 1.0
    layout: str = "random"
    trail_width: int = 1

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ConfigError(f"unknown layout {self.layout!r}, expected one of {LAYOUTS}")
        if self.trail_width < 1 or self.trail_width % 2 == 0:
            raise ConfigError("trail width must be odd and >= 1")
        interior = min(self.rows, self.cols) - 2 * MARGIN
        if self.trail_width + 1 > interior:
            raise ConfigError(
                f"a trail of width {self.trail_width} does not fit a "
                f"{self.rows}x{self.cols} grid"
            )


# ---------------------------------------------------------------------------
# layout construction

def _straight_cells(rng, rows, cols):
    if rng.integers(2):
        r0 = int(rng.integers(MARGIN, rows - MARGIN))
        return [(r0, c) for c in range(MARGIN, cols - MARGIN)]
    c0 = int(rng.integers(MARGIN, cols - MARGIN))
    return [(r, c0) for r in range(MARGIN, rows - MARGIN)]


def _curve_cells(rng, rows, cols):
    # an L: horizontal leg to a bend, then a vertical leg
    rb = int(rng.integers(rows // 3, rows - rows // 3))
    cb = int(rng.integers(cols // 3, cols - cols // 3))
    h_from_left = bool(rng.integers(2))
    v_down = bool(rng.integers(2))
    if h_from_left:
        horiz = [(rb, c) for c in range(MARGIN, cb + 1)]
    else:
        horiz = [(rb, c) for c in range(cols - 1 - MARGIN, cb - 1, -1)]
    if v_down:
        vert = [(r, cb) for r in range(rb + 1, rows - MARGIN)]
    else:
        vert = [(r, cb) for r in range(rb - 1, MARGIN - 1, -1)]
    return horiz + vert


def _tee_cells(rng, rows, cols):
    # a bar plus a stem meeting mid-bar
    horizontal_bar = bool(rng.integers(2))
    if horizontal_bar:
        r0 = int(rng.integers(MARGIN, rows - MARGIN))
        bar = [(r0, c) for c in range(MARGIN, cols - MARGIN)]
        cj = int(rng.integers(cols // 3, cols - cols // 3))
        if r0 < rows // 2:
            stem = [(r, cj) for r in range(r0 + 1, rows - MARGIN)]
        else:
            stem = [(r, cj) for r in range(MARGIN, r0)]
        return bar + stem
    c0 = int(rng.integers(MARGIN, cols - MARGIN))
    bar = [(r, c0) for r in range(MARGIN, rows - MARGIN)]
    rj = int(rng.integers(rows // 3, rows - rows // 3))
    if c0 < cols // 2:
        stem = [(rj, c) for c in range(c0 + 1, cols - MARGIN)]
    else:
        stem = [(rj, c) for c in range(MARGIN, c0)]
    return bar + stem


def _cross_cells(rng, rows, cols):
    r0 = int(rng.integers(rows // 3, rows - rows // 3))
    c0 = int(rng.integers(cols // 3, cols - cols // 3))
    horiz = [(r0, c) for c in range(MARGIN, cols - MARGIN)]
    vert = [(r, c0) for r in range(MARGIN, rows - MARGIN)]
    return horiz + vert


def _dilate(mask, radius):
    if radius == 0:
        return mask
    out = mask.copy()
    rows, cols = mask.shape
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            src = mask[max(0, -dr):rows - max(0, dr), max(0, -dc):cols - max(0, dc)]
            out[max(0, dr):rows - max(0, -dr), max(0, dc):cols - max(0, -dc)] |= src
    return out


def _connected(mask) -> bool:
    cells = np.argwhere(mask)
    if len(cells) == 0:
        return False
    seen = np.zeros_like(mask)
    stack = [tuple(cells[0])]
    seen[tuple(cells[0])] = True
    while stack:
        r, c = stack.pop()
        for dr, dc in ACTION_DELTAS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < mask.shape[0] and 0 <= nc < mask.shape[1] \
                    and mask[nr, nc] and not seen[nr, nc]:
                seen[nr, nc] = True
                stack.append((nr, nc))
    return bool(np.all(seen[mask]))


def generate_world(spec: WorldSpec) -> GridWorld:
    """Deterministic per seed; trail cells recoverable by thresholding channel 1."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    rows, cols = spec.rows, spec.cols
    layout = spec.layout
    if layout == "random":
        layout = ("straight", "curve")[rng.integers(2)]
    centerline = {
        "straight": _straight_cells,
        "curve": _curve_cells,
        "tee": _tee_cells,
        "cross": _cross_cells,
    }[layout](rng, rows, cols)
    mask = np.zeros((rows, cols), dtype=bool)
    for r, c in centerline:
        mask[r, c] = True
    mask = _dilate(mask, (spec.trail_width - 1) // 2)
    assert _connected(mask)

    size = (rows, cols)
    env = np.empty((5, rows, cols))
    on_h = rng.uniform(*TRAIL_HEIGHT, size=size)
    off_h = rng.uniform(*OFF_HEIGHT, size=size)
    env[0] = np.where(mask, on_h, off_h)
    on_v = rng.uniform(*TRAIL_VAR, size=size)
    off_v = rng.uniform(*OFF_VAR, size=size)
    env[1] = np.where(mask, on_v, off_v)
    for i in range(3):
        noise = rng.normal(scale=RGB_JITTER, size=size)
        env[2 + i] = np.where(mask, TRAIL_RGB[i], OFF_RGB[i]) + noise
    np.clip(env, 0.0, 1.0, out=env)
    return GridWorld(rows=rows, cols=cols, resolution=spec.resolution, env=env)


# ---------------------------------------------------------------------------
# trail geometry

def trail_mask(world: GridWorld) -> np.ndarray:
    return world.env[1] < VAR_THRESHOLD


def _neighbor_counts(mask):
    counts = np.zeros(mask.shape, dtype=np.int64)
    counts[1:, :] += mask[:-1, :]
    counts[:-1, :] += mask[1:, :]
    counts[:, 1:] += mask[:, :-1]
    counts[:, :-1] += mask[:, 1:]
    return counts


def junction_cells(mask) -> list:
    """Trail cells where three or more arms meet."""
    counts = _neighbor_counts(mask)
    return [tuple(rc) for rc in np.argwhere(mask & (counts >= 3))]


def bend_cells(mask) -> list:
    """Trail cells with exactly two, perpendicular, trail neighbors."""
    rows, cols = mask.shape
    out = []
    for r, c in np.argwhere(mask & (_neighbor_counts(mask) == 2)):
        dirs = [(dr, dc) for dr, dc in ACTION_DELTAS
                if 0 <= r + dr < rows and 0 <= c + dc < cols and mask[r + dr, c + dc]]
        if len(dirs) == 2 and dirs[0][0] != -dirs[1][0]:
            out.append((int(r), int(c)))
    return out


def classify_tag(mask, future) -> str:
    junctions = set(junction_cells(mask))
    visited = {(int(r), int(c)) for r, c in np.asarray(future)}
    if visited & junctions:
        return "intersection"
    if visited & set(bend_cells(mask)):
        return "curve"
    return "straight"


# ---------------------------------------------------------------------------
# ground truth reward

def _heading_delta(context: KinematicContext):
    if context.dx != 0.0:
        return (0, 1) if context.dx > 0 else (0, -1)
    if context.dy != 0.0:
        return (1, 0) if context.dy > 0 else (-1, 0)
    return None


def ground_truth_reward(world: GridWorld, start, context: KinematicContext) -> np.ndarray:
    """Trail cells 0, everything else OFF_TRAIL_PENALTY, plus the speed-gated ramp.

    The ramp climbs along the straight-ahead ray from the vehicle cell while the
    ray stays on the trail, stopping at the first off-trail cell. Every quantity
    here is a function of the observation channels, the positional channels and
    the kinematic context, so the learner can represent it.
    """
    mask = trail_mask(world)
    reward = np.where(mask, 0.0, OFF_TRAIL_PENALTY)
    speed = max(abs(context.dx), abs(context.dy))
    step = _heading_delta(context)
    if speed > FAST_THRESHOLD and step is not None:
        r, c = int(start[0]), int(start[1])
        k = 0
        while True:
            r, c = r + step[0], c + step[1]
            if not (0 <= r < world.rows and 0 <= c < world.cols) or not mask[r, c]:
                break
            k += 1
            reward[r, c] += RAY_RATE * k
    return reward


# ---------------------------------------------------------------------------
# demonstrations

def cell_center(cell, resolution: float) -> np.ndarray:
    # x runs along columns, y along rows (so +y pairs with the "down" action)
    return np.array([(cell[1] + 0.5) * resolution, (cell[0] + 0.5) * resolution])


@dataclass
class Demonstration:
    world: GridWorld
    past: PastTrack
    future: np.ndarray        # (H, 2) cells, first = current cell
    expert_speed: float
    seed: int
    tag: str

    def __post_init__(self):
        self.future = np.asarray(self.future, dtype=np.int64)
        if self.future.ndim != 2 or self.future.shape[1] != 2 or len(self.future) < 1:
            raise ConfigError(f"future must be (H, 2) cells, got {self.future.shape}")
        if self.tag not in TAGS:
            raise ConfigError(f"unknown scenario tag {self.tag!r}")
        if self.expert_speed <= 0:
            raise ConfigError("expert speed must be positive")
        # adjacency audit: replaying the recovered actions must reproduce the cells
        actions_from_cells(self.future, self.world.rows, self.world.cols)
        gap = self.past.xy[-1] - cell_center(self.future[0], self.world.resolution)
        if np.abs(gap).max() > 0.5 * self.world.resolution + 1e-9:
            raise ConfigError("past track does not end at the future's start cell")

    @property
    def horizon(self) -> int:
        return len(self.future)


def _walk_past(mask, start, first_action: Optional[int], n_cells: int, rng):
    """Follow the trail away from `start`, preferring to keep direction.

    Returns cells ordered start-first; the caller reverses them into a past.
    """
    rows, cols = mask.shape
    cells = [tuple(int(v) for v in start)]
    prev = None
    heading = None if first_action is None else ACTION_DELTAS[first_action]
    while len(cells) < n_cells:
        r, c = cells[-1]
        options = []
        for d in ACTION_DELTAS:
            nr, nc = r + d[0], c + d[1]
            if 0 <= nr < rows and 0 <= nc < cols and mask[nr, nc] and (nr, nc) != prev:
                options.append(d)
        if not options:
            break
        if heading in options:
            d = heading
        else:
            d = options[rng.integers(len(options))]
            heading = d
        prev = (r, c)
        cells.append((r + d[0], c + d[1]))
    return cells


def _past_track_from_cells(cells, resolution: float, speed: float) -> PastTrack:
    """Constant-speed samples along the reversed cell polyline, 10 Hz, newest last."""
    pts = np.array([cell_center(rc, resolution) for rc in reversed(cells)])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    window = min(PAST_WINDOW, total / speed)
    n = int(math.floor(window * PAST_RATE)) + 1
    if n < 3:
        n = 3
    # last sample sits exactly at the end of the polyline (the current cell)
    t = window - np.arange(n - 1, -1, -1) / PAST_RATE
    if n == 3 and window < 2.0 / PAST_RATE:
        t = np.array([0.0, window / 2.0, window])
    s = np.maximum(total - speed * (window - t), 0.0)
    xy = np.stack([np.interp(s, cum, pts[:, 0]), np.interp(s, cum, pts[:, 1])], axis=1)
    return PastTrack(t=t, xy=xy)


def generate_demonstration(world: GridWorld, speed: float = 4.0, seed: int = 0, *,
                           start=None, past_direction: Optional[int] = None,
                           horizon: Optional[int] = None,
                           demo_beta: float = DEMO_BETA) -> Demonstration:
    """Sample one expert: synthesize a past along the trail, then roll the
    annealed-softmax policy of the ground-truth reward forward."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mask = trail_mask(world)
    candidates = np.argwhere(mask & (_neighbor_counts(mask) >= 1))
    if len(candidates) == 0:
        raise ConfigError("world has no usable trail cells to start from")
    if start is None:
        start = tuple(int(v) for v in candidates[rng.integers(len(candidates))])
    else:
        start = (int(start[0]), int(start[1]))
        if not mask[start]:
            raise ConfigError(f"start cell {start} is off the trail")

    n_cells = int(math.ceil(speed * PAST_WINDOW / world.resolution)) + 1
    walked = _walk_past(mask, start, past_direction, n_cells, rng)
    if len(walked) < 2:
        raise ConfigError(f"no room to synthesize a past track from {start}")
    past = _past_track_from_cells(walked, world.resolution, speed)
    context = kinematic_context(past)

    reward = ground_truth_reward(world, start, context)
    policy = value_iteration(reward, gamma=DEMO_GAMMA, epsilon=DEMO_EPSILON, beta=demo_beta)
    if horizon is None:
        horizon = int(rng.integers(15, 26))
    if not 15 <= horizon <= 40:
        raise ConfigError(f"horizon {horizon} outside the supported 15..40 range")
    future = sample_trajectories(policy, start, horizon, 1, rng)[0]
    tag = classify_tag(mask, future)
    return Demonstration(world=world, past=past, future=future,
                         expert_speed=float(speed), seed=int(seed), tag=tag)


# ---------------------------------------------------------------------------
# augmentation and balancing

def _rotate_world(world: GridWorld) -> GridWorld:
    env = np.rot90(world.env, k=-1, axes=(1, 2)).copy()
    return GridWorld(rows=world.rows, cols=world.cols,
                     resolution=world.resolution, env=env)


def augment_rotations(demo: Demonstration) -> list:
    """The demo plus its 90/180/270 degree rotations, mutually consistent."""
    world = demo.world
    if world.rows != world.cols:
        raise ConfigError("rotation augmentation needs a square grid")
    n = world.rows
    extent = n * world.resolution
    out = [demo]
    cur = demo
    for _ in range(3):
        rot_world = _rotate_world(cur.world)
        future = np.stack([cur.future[:, 1], n - 1 - cur.future[:, 0]], axis=1)
        xy = np.stack([extent - cur.past.xy[:, 1], cur.past.xy[:, 0]], axis=1)
        cur = Demonstration(world=rot_world,
                            past=PastTrack(t=cur.past.t.copy(), xy=xy),
                            future=future, expert_speed=cur.expert_speed,
                            seed=cur.seed, tag=cur.tag)
        out.append(cur)
    return out


def balance_dataset(demos: list, targets: dict) -> list:
    """Deterministic resampling to the target tag fractions, ±1 demo per tag."""
    if not demos:
        raise ConfigError("no demonstrations to balance")
    unknown = set(targets) - set(TAGS)
    if unknown:
        raise ConfigError(f"unknown tags in balance targets: {sorted(unknown)}")
    fracs = {tag: float(targets.get(tag, 0.0)) for tag in TAGS}
    if any(f < 0 for f in fracs.values()):
        raise ConfigError("balance fractions must be nonnegative")
    total_frac = sum(fracs.values())
    if abs(total_frac - 1.0) > 1e-9:
        raise ConfigError(f"balance fractions sum to {total_frac}, expected 1")

    n = len(demos)
    raw = {tag: n * fracs[tag] for tag in TAGS}
    counts = {tag: int(math.floor(raw[tag])) for tag in TAGS}
    leftover = n - sum(counts.values())
    for tag in sorted(TAGS, key=lambda t: (raw[t] - counts[t]), reverse=True)[:leftover]:
        counts[tag] += 1

    pools = {tag: [d for d in demos if d.tag == tag] for tag in TAGS}
    missing = [tag for tag in TAGS if counts[tag] > 0 and not pools[tag]]
    if missing:
        raise ConfigError(f"no demonstrations available for tags: {missing}")
    out = []
    for tag in TAGS:
        pool = pools[tag]
        out.extend(pool[i % len(pool)] for i in range(counts[tag]))
    return out
