"""Procedural trail worlds and expert demonstrations.

Worlds are trail networks (straight runs, bends, T and cross junctions) drawn
onto rough terrain. The trail is recoverable from the observation channels by
construction: trail cells get low height variance, off-trail cells high, with
a clean threshold between the two bands. Demonstrations are exact samples from
the softmax policy of DEMO_BETA times a ground-truth reward over those same
channels, so the training data sits inside the model class the learner
assumes: a reward net can learn the scale along with the map.

Speed conditions behavior: above a normalized-speed threshold the ground truth
adds a reward ramp that climbs along the straight-ahead ray, so fast experts
press forward while slow ones spread over every trail arm. A flat bonus would
not do this: per-cell rewards are harvested equally by pacing back and forth,
which leaves forward and backward motion tied. The ramp breaks the tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .kinematics import PAST_RATE, PAST_WINDOW, KinematicContext, PastTrack, kinematic_context
from .mdp import (ACTION_DELTAS, ENV_CHANNEL_NAMES, GridWorld, actions_from_cells, cells_to_xy,
                  neighbors, read_only, sample_trajectories, value_iteration)

VAR_THRESHOLD = 0.06     # height-variance split between trail and rough ground
FAST_THRESHOLD = 0.5     # normalized speed above which the straight-ahead ramp applies
OFF_TRAIL_PENALTY = -2.0
RAY_RATE = 0.25          # per-cell increment of the straight-ahead ramp
MARGIN = 2               # trail inset from the border, keeps boundary clipping out of play
DEMO_BETA = 2.5          # the expert's reward scale: it plans on DEMO_BETA * ground truth
HORIZON_MIN, HORIZON_MAX = 15, 40  # the supported range of a demo's future length

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


# ---------------------------------------------------------------------------
# layout construction

def _middle(rng, n: int) -> int:
    return int(rng.integers(n // 3, n - n // 3))


# Each builder draws straight slices into an all-False mask. A vertical variant
# is its horizontal form drawn on mask.T, which swaps rows and cols throughout.

def _draw_straight(rng, mask):
    mask = mask if rng.integers(2) else mask.T
    rows, cols = mask.shape
    mask[int(rng.integers(MARGIN, rows - MARGIN)), MARGIN:cols - MARGIN] = True


def _draw_curve(rng, mask):
    # an L: horizontal leg to a bend, then a vertical leg
    rows, cols = mask.shape
    rb, cb = _middle(rng, rows), _middle(rng, cols)
    horizontal = slice(MARGIN, cb + 1) if rng.integers(2) else slice(cb, cols - MARGIN)
    vertical = slice(rb + 1, rows - MARGIN) if rng.integers(2) else slice(MARGIN, rb)
    mask[rb, horizontal] = True
    mask[vertical, cb] = True


def _draw_tee(rng, mask):
    # a bar plus a stem meeting mid-bar, running to the far side
    mask = mask if rng.integers(2) else mask.T
    rows, cols = mask.shape
    r0 = int(rng.integers(MARGIN, rows - MARGIN))
    mask[r0, MARGIN:cols - MARGIN] = True
    stem = slice(r0 + 1, rows - MARGIN) if r0 < rows // 2 else slice(MARGIN, r0)
    mask[stem, _middle(rng, cols)] = True


def _draw_cross(rng, mask):
    rows, cols = mask.shape
    r0, c0 = _middle(rng, rows), _middle(rng, cols)
    mask[r0, MARGIN:cols - MARGIN] = True
    mask[MARGIN:rows - MARGIN, c0] = True


def _dilate(mask, radius):
    """Grow the mask by a (2 * radius + 1)-cell square: one row pass and one
    column pass per unit of radius."""
    for _ in range(radius):
        mask = mask | neighbors(mask)[2:].any(axis=0)
        mask = mask | neighbors(mask)[:2].any(axis=0)
    return mask


def generate_world(*, seed: int = 0, rows: int = 32, cols: int = 32, resolution: float = 1.0,
                   layout: str = "random", trail_width: int = 1) -> GridWorld:
    """Deterministic per seed; trail cells recoverable by thresholding channel 1."""
    if layout not in LAYOUTS:
        raise ConfigError(f"unknown layout {layout!r}, expected one of {LAYOUTS}")
    if trail_width < 1 or trail_width % 2 == 0:
        raise ConfigError("trail width must be odd and >= 1")
    if trail_width + 1 > min(rows, cols) - 2 * MARGIN:
        raise ConfigError(f"a trail of width {trail_width} does not fit a {rows}x{cols} grid")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if layout == "random":
        layout = ("straight", "curve")[rng.integers(2)]
    mask = np.zeros((rows, cols), dtype=bool)
    {"straight": _draw_straight, "curve": _draw_curve, "tee": _draw_tee,
     "cross": _draw_cross}[layout](rng, mask)
    mask = _dilate(mask, (trail_width - 1) // 2)

    size = (rows, cols)
    env = np.empty((len(ENV_CHANNEL_NAMES), rows, cols))
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
    return GridWorld(rows=rows, cols=cols, resolution=resolution, env=env)


# ---------------------------------------------------------------------------
# trail geometry

def trail_mask(world: GridWorld) -> np.ndarray:
    return world.env[1] < VAR_THRESHOLD


def _cells(mask) -> list:
    return [(int(r), int(c)) for r, c in np.argwhere(mask)]


def junction_cells(mask) -> list:
    """Trail cells where three or more arms meet, in row-major order."""
    return _cells(mask & (neighbors(mask).sum(axis=0) >= 3))


def bend_cells(mask) -> list:
    """Trail cells with exactly two, perpendicular, trail neighbors, in
    row-major order."""
    up, down, left, right = neighbors(mask)
    return _cells(mask & (up ^ down) & (left ^ right))


def _erode(mask, radius):
    return ~_dilate(~mask, radius)


def classify_tag(mask, future) -> str:
    """"intersection" if the future passes a junction, else "curve" if it
    passes a bend, else "straight".

    A trail of width 2r + 1 is a width-1 trail grown by _dilate(., r), so
    junctions and bends are those of its core, the mask eroded by r (the
    deepest erosion that leaves trail cells), and the future passes one when
    it comes within r cells of it. On the raw mask every inner cell of a wide
    trail would count as a junction.
    """
    radius = 0
    while _erode(mask, radius + 1).any():
        radius += 1
    core = _erode(mask, radius)
    visited = np.zeros_like(mask)
    visited[tuple(np.asarray(future).T)] = True
    near = set(_cells(_dilate(visited, radius)))
    if near & set(junction_cells(core)):
        return "intersection"
    if near & set(bend_cells(core)):
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
        ahead = neighbors(mask)[ACTION_DELTAS.index(step)]
        r, c = int(start[0]), int(start[1])
        k = 0
        while ahead[r, c]:
            r, c = r + step[0], c + step[1]
            k += 1
            reward[r, c] += RAY_RATE * k
    return reward


# ---------------------------------------------------------------------------
# scenes and demonstrations

@dataclass(frozen=True)
class Scene:
    """What a forecast reads: the map, the past track and the start cell
    (row, col) that the past ends in. A Demonstration serves as one as it is."""

    world: GridWorld
    past: PastTrack
    start: tuple

    def __post_init__(self):
        object.__setattr__(self, "start", (int(self.start[0]), int(self.start[1])))
        gap = self.past.xy[-1] - cells_to_xy([self.start], self.world.resolution)[0]
        if np.abs(gap).max() > 0.5 * self.world.resolution + 1e-9:
            raise ConfigError("past track does not end at the start cell")


@dataclass(frozen=True)
class Demonstration:
    """One expert run on a scene: its future cells and the moves between them,
    both kept read-only, so the two cannot drift apart."""

    world: GridWorld
    past: PastTrack
    future: np.ndarray        # (H, 2) cells, H >= 2, first = start cell
    expert_speed: float
    seed: int
    tag: str
    actions: np.ndarray = field(init=False)  # (H - 1,) moves along future, set from it

    def __post_init__(self):
        object.__setattr__(self, "future", read_only(self.future, np.int64))
        # shape and adjacency audit: replaying the recovered actions must reproduce the cells
        actions = actions_from_cells(self.future, self.world.rows, self.world.cols)
        actions.setflags(write=False)
        object.__setattr__(self, "actions", actions)
        if len(self.future) < 2:  # NLL and cloning score transitions
            raise ConfigError(f"demo future needs at least two cells, got {len(self.future)}")
        if self.tag not in TAGS:
            raise ConfigError(f"unknown scenario tag {self.tag!r}")
        if not 0 < self.expert_speed < math.inf:
            raise ConfigError(f"expert speed must be finite and positive, got {self.expert_speed}")
        Scene(self.world, self.past, self.start)

    @property
    def start(self) -> tuple:
        return tuple(int(v) for v in self.future[0])

    @property
    def horizon(self) -> int:
        return len(self.future)


def _walk_past(mask, start, first_action: Optional[int], n_cells: int, rng):
    """Follow the trail away from `start`, preferring to keep direction.

    Returns cells ordered start-first; the caller reverses them into a past.
    """
    adjacent = neighbors(mask)
    cells = [tuple(int(v) for v in start)]
    prev = None
    heading = None if first_action is None else ACTION_DELTAS[first_action]
    while len(cells) < n_cells:
        r, c = cells[-1]
        options = [d for d, adjacent_here in zip(ACTION_DELTAS, adjacent[:, r, c])
                   if adjacent_here and (r + d[0], c + d[1]) != prev]
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
    pts = cells_to_xy(cells[::-1], resolution)
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


def _expert_setup(world: GridWorld, speed: float, seed: int, start=None,
                  past_direction: Optional[int] = None, horizon: Optional[int] = None):
    """One expert up to its planner: (generator, start cell, past track,
    horizon, ground-truth reward map)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mask = trail_mask(world)
    candidates = np.argwhere(mask & neighbors(mask).any(axis=0))
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
    if horizon is None:
        horizon = int(rng.integers(15, 26))
    if not HORIZON_MIN <= horizon <= HORIZON_MAX:
        raise ConfigError(f"horizon {horizon} outside the supported "
                          f"{HORIZON_MIN}..{HORIZON_MAX} range")
    return rng, start, past, horizon, reward


def generate_demonstrations(requests) -> list:
    """One expert per request, a dict of generate_demonstration's per-demo
    arguments (world, speed, seed; optionally start, past_direction, horizon).
    All experts plan in one value_iteration call; each draws only from its own
    seeded generator, so every demo equals the one generated alone."""
    requests = list(requests)
    setups = [_expert_setup(**request) for request in requests]
    plans = value_iteration([DEMO_BETA * reward for *_, reward in setups])
    demos = []
    for request, (rng, start, past, horizon, _), policy in zip(requests, setups, plans):
        world = request["world"]
        flat = sample_trajectories(policy, start, horizon, 1, rng)[0]
        future = np.stack(np.divmod(flat, world.cols), axis=1)
        demos.append(Demonstration(world=world, past=past, future=future,
                                   expert_speed=float(request["speed"]),
                                   seed=int(request["seed"]),
                                   tag=classify_tag(trail_mask(world), future)))
    return demos


def generate_demonstration(world: GridWorld, speed: float = 4.0, seed: int = 0, *,
                           start=None, past_direction: Optional[int] = None,
                           horizon: Optional[int] = None) -> Demonstration:
    """Sample one expert: synthesize a past along the trail, then roll the
    softmax policy of the scaled ground-truth reward forward."""
    request = dict(world=world, speed=speed, seed=seed, start=start,
                   past_direction=past_direction, horizon=horizon)
    return generate_demonstrations([request])[0]


# ---------------------------------------------------------------------------
# augmentation and balancing

def _rotate_world(world: GridWorld) -> GridWorld:
    env = np.rot90(world.env, k=-1, axes=(1, 2))
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
                            past=PastTrack(t=cur.past.t, xy=xy),
                            future=future, expert_speed=cur.expert_speed,
                            seed=cur.seed, tag=cur.tag)
        out.append(cur)
    return out


def balance_fractions(targets) -> dict:
    """The fraction of every tag under a balance spec, which must be a JSON
    object of known tags to nonnegative numbers summing to 1."""
    if not isinstance(targets, dict):
        raise ConfigError(f"balance must be a JSON object of tag fractions, "
                          f"got {type(targets).__name__}")
    unknown = set(targets) - set(TAGS)
    if unknown:
        raise ConfigError(f"unknown tags in balance targets: {sorted(unknown)}")
    bad = {tag: f for tag, f in targets.items()
           if isinstance(f, bool) or not isinstance(f, (int, float)) or not f >= 0}
    if bad:
        raise ConfigError(f"balance fractions must be nonnegative numbers, got {bad}")
    fracs = {tag: float(targets.get(tag, 0.0)) for tag in TAGS}
    total_frac = sum(fracs.values())
    if abs(total_frac - 1.0) > 1e-9:
        raise ConfigError(f"balance fractions sum to {total_frac}, expected 1")
    return fracs


def balance_dataset(demos: list, targets: dict) -> list:
    """Deterministic resampling to the target tag fractions, ±1 demo per tag."""
    if not demos:
        raise ConfigError("no demonstrations to balance")
    fracs = balance_fractions(targets)

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
