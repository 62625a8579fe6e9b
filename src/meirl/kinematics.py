"""Kinematic context from a past track, positional channels, and the input stack.

The context fed to the reward net is three scalars broadcast over the grid:
a mean velocity discretized to the dominant cardinal axis (magnitude clipped
by a normalizing speed) and a signed curvature from an algebraic circle fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mdp import GridWorld

SPEED_NORM = 10.0  # m/s mapped to |dx| or |dy| == 1
KAPPA_MAX = 0.5    # 1/m mapped to |kappa| == 1
CURVATURE_RADIUS_CUTOFF = 1e4  # fits flatter than this count as straight

PAST_WINDOW = 5.0  # seconds
PAST_RATE = 10.0   # Hz

N_FEATURE_CHANNELS = 25  # learned stage-1 feature maps
N_STACK_CHANNELS = N_FEATURE_CHANNELS + 5  # + 2 positional + dx, dy, kappa


@dataclass
class PastTrack:
    """Timestamped planar positions, metres; strictly increasing time, finite step speeds."""

    t: np.ndarray   # (n,)
    xy: np.ndarray  # (n, 2)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.xy = np.asarray(self.xy, dtype=np.float64)
        if self.t.ndim != 1 or self.xy.shape != (self.t.shape[0], 2):
            raise ConfigError(
                f"track needs t (n,) and xy (n, 2); got {self.t.shape} and {self.xy.shape}"
            )
        if len(self.t) == 0:
            raise ConfigError("track is empty")
        if not (np.isfinite(self.t).all() and np.isfinite(self.xy).all()):
            raise ConfigError("track contains non-finite values")
        dt = np.diff(self.t)
        if not (dt > 0).all():
            raise ConfigError("track timestamps must be strictly increasing")
        with np.errstate(over="ignore"):  # a subnormal time step overflows the speed
            fast = np.isinf(np.hypot(*np.diff(self.xy, axis=0).T) / dt)
        if fast.any():
            raise ConfigError(f"track step {int(np.argmax(fast))} implies an infinite speed")

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class KinematicContext:
    """(dx, dy, kappa), each in [-1, 1]; at most one of dx, dy is nonzero."""

    dx: float
    dy: float
    kappa: float

    def __post_init__(self):
        for name in ("dx", "dy", "kappa"):
            val = getattr(self, name)
            if not -1.0 <= val <= 1.0:
                raise ConfigError(f"context {name}={val} outside [-1, 1]")
        if self.dx != 0.0 and self.dy != 0.0:
            raise ConfigError("velocity must lie on one cardinal axis")


def extract_velocity(track: PastTrack):
    """Discretized mean velocity (dx, dy).

    Speed is arc length over elapsed time; direction is the net displacement
    projected to its dominant cardinal axis (ties break toward x). Magnitude is
    min(speed / SPEED_NORM, 1).
    """
    if len(track) < 2:
        raise ConfigError("velocity needs at least 2 track samples")
    elapsed = track.t[-1] - track.t[0]
    seg = np.diff(track.xy, axis=0)
    speed = float(np.hypot(seg[:, 0], seg[:, 1]).sum() / elapsed)
    if speed == 0.0:
        return 0.0, 0.0
    mag = min(speed / SPEED_NORM, 1.0)
    ux, uy = track.xy[-1] - track.xy[0]
    if ux == 0.0 and uy == 0.0:
        return 0.0, 0.0
    if abs(ux) >= abs(uy):
        return math.copysign(mag, ux), 0.0
    return 0.0, math.copysign(mag, uy)


def fit_curvature(track: PastTrack) -> float:
    """Signed curvature 1/R from an algebraic least-squares circle fit.

    Solves x^2 + y^2 + a x + b y + c = 0 in the least-squares sense; the sign is
    positive for a counterclockwise (left-turning) track. Collinear tracks and
    fits flatter than CURVATURE_RADIUS_CUTOFF return 0.
    """
    if len(track) < 3:
        raise ConfigError("curvature needs at least 3 track samples")
    x, y = track.xy[:, 0], track.xy[:, 1]
    a_mat = np.column_stack([x, y, np.ones_like(x)])
    rhs = -(x * x + y * y)
    sol, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    if rank < 3:
        return 0.0
    a, b, c = sol
    r_sq = 0.25 * (a * a + b * b) - c
    if r_sq <= 0.0:
        return 0.0
    radius = math.sqrt(r_sq)
    if radius > CURVATURE_RADIUS_CUTOFF:
        return 0.0
    # turn direction from accumulated cross products of successive headings
    seg = np.diff(track.xy, axis=0)
    cross = seg[:-1, 0] * seg[1:, 1] - seg[:-1, 1] * seg[1:, 0]
    turn = float(cross.sum())
    if turn == 0.0:
        return 0.0
    return math.copysign(1.0 / radius, turn)


def kinematic_context(track: PastTrack) -> KinematicContext:
    dx, dy = extract_velocity(track)
    kappa = max(-KAPPA_MAX, min(KAPPA_MAX, fit_curvature(track))) / KAPPA_MAX
    return KinematicContext(dx=dx, dy=dy, kappa=kappa)


def positional_channels(world: GridWorld, vehicle_cell) -> np.ndarray:
    """Two channels of signed offsets from the vehicle cell, scaled to [-1, 1].

    Channel 0: (col - vehicle_col) * resolution / (cols * resolution);
    channel 1 the same for rows. Zero at the vehicle cell.
    """
    vr, vc = int(vehicle_cell[0]), int(vehicle_cell[1])
    if not (0 <= vr < world.rows and 0 <= vc < world.cols):
        raise ConfigError(f"vehicle cell {vehicle_cell} outside {world.rows}x{world.cols} grid")
    col_off = (np.arange(world.cols) - vc) / float(world.cols)
    row_off = (np.arange(world.rows) - vr) / float(world.rows)
    out = np.empty((2, world.rows, world.cols))
    out[0] = np.broadcast_to(col_off[None, :], (world.rows, world.cols))
    out[1] = np.broadcast_to(row_off[:, None], (world.rows, world.cols))
    return out


def build_input_stack(stage1_features: np.ndarray, world: GridWorld, vehicle_cell,
                      context: KinematicContext) -> np.ndarray:
    """The (30, rows, cols) stage-2 input of one demonstration: the 25 learned
    feature maps, positional x, positional y, then dx, dy, kappa broadcast as
    constant planes."""
    feats = np.asarray(stage1_features, dtype=np.float64)
    if feats.shape != (N_FEATURE_CHANNELS, world.rows, world.cols):
        raise ConfigError(
            f"stage-1 features must be {(N_FEATURE_CHANNELS, world.rows, world.cols)}, "
            f"got {feats.shape}"
        )
    pos = positional_channels(world, vehicle_cell)
    const = np.empty((3, world.rows, world.cols))
    const[0] = context.dx
    const[1] = context.dy
    const[2] = context.kappa
    return np.concatenate([feats, pos, const], axis=0)
