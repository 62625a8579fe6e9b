"""Comparison predictors: bicycle-model EKF and behavior cloning (the uniform
random baseline is `mdp.uniform_policy`).

The EKF filters the state (x, y, heading, speed, steering) and its covariance
from position measurements alone, with the fixed diagonal variances
PROCESS_VAR, MEASUREMENT_VAR and INITIAL_VAR, and forecasts by freezing speed
and steering. It is batch-first, as the planner in `mdp` is: `ekf_run` filters
a list of past tracks in one loop over filter steps, each position bit for bit
as if alone; a position that fails drops out, and the failure of the lowest
failing position is raised once the pass ends. The behavior-cloning policy is
the softmax of a 4-channel action head that reads the exact IRL input stack
(same code path); `trainer.bc_train` fits it with cross-entropy. The
kinematics-free IRL ablation is the trainer run on an `env_only` net.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ConvergenceError
from .kinematics import PastTrack
from .mdp import GridWorld, Policy, softmax
from .reward_net import forward
from .synthetic import Demonstration

WHEELBASE = 1.8
# the EKF's variances: the motion model's noise per step on (x, y, heading,
# speed, steering), the position measurement's, and the state's before its
# first correction
PROCESS_VAR = (0.01, 0.01, 0.005, 0.1, 0.01)
MEASUREMENT_VAR = (0.05, 0.05)
INITIAL_VAR = (0.1, 0.1, 0.5, 1.0, 0.1)
H = np.eye(2, 5)  # a measurement reads the state's position


def wrap_angle(theta):
    """Wrap to (-pi, pi], elementwise over an array."""
    wrapped = np.fmod(theta + math.pi, 2.0 * math.pi)  # exact, as math.fmod is
    return np.where(wrapped <= 0.0, wrapped + 2.0 * math.pi, wrapped) - math.pi


def _each(fn, stack, live, failures):
    """`fn` over a stack of matrices in one call, and the mask of the live
    positions it served. LAPACK refuses a whole stack for one matrix it cannot
    take, so then each matrix is tried alone: a refused one fails its position,
    and the stack runs again with the identity in its place."""
    served = np.ones(len(stack), dtype=bool)
    try:
        return fn(stack), served
    except np.linalg.LinAlgError:
        for i, matrix in enumerate(stack):
            try:
                fn(matrix)
            except np.linalg.LinAlgError as e:
                failures[live[i]] = e
                served[i] = False
        return fn(np.where(served[:, None, None], stack, np.eye(stack.shape[-1]))), served


def _checked(states, covs, live, failures):
    """Symmetrise the covariances of the live positions and wrap their
    headings, once each state and covariance is finite and the covariance is
    positive semi-definite. A position failing that fails and leaves; returns
    the positions still live."""
    cov = covs[live]
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    ok = np.isfinite(states[live]).all(axis=1) & np.isfinite(cov).all(axis=(1, 2))
    for position in live[~ok]:
        failures[position] = ConvergenceError("EKF state or covariance is not finite")
    # only finite matrices go in: LAPACK would refuse a stack holding a NaN one
    eigs, served = _each(np.linalg.eigvalsh, cov[ok], live[ok], failures)
    psd = eigs.min(axis=1) >= -1e-8
    for position in live[ok][served & ~psd]:
        failures[position] = ConvergenceError("EKF covariance is not positive semi-definite")
    ok[ok] = served & psd
    live = live[ok]
    covs[live] = cov[ok]
    states[live, 2] = wrap_angle(states[live, 2])
    return live


def _motion_step(x, y, theta, v, delta, dt):
    """Constant speed and steering over dt. Exact along the resulting arc, with
    the straight-line limit handled explicitly."""
    omega = v * math.tan(delta) / WHEELBASE
    if abs(omega * dt) < 1e-9:
        return x + v * dt * math.cos(theta), y + v * dt * math.sin(theta), theta
    radius = v / omega
    theta2 = theta + omega * dt
    return (x + radius * (math.sin(theta2) - math.sin(theta)),
            y - radius * (math.cos(theta2) - math.cos(theta)),
            theta2)


def _filter(tracks: list[PastTrack]):
    """The pass behind `ekf_run`: the states (B, 5) and covariances (B, 5, 5)
    after each track's last sample, and {position: its first failure}. A
    failed position's rows hold where it stopped."""
    n = len(tracks)
    lengths = np.array([len(track) for track in tracks], dtype=np.intp)
    longest = int(lengths.max(initial=0))
    t, xy = np.zeros((n, longest)), np.zeros((n, longest, 2))
    states, covs = np.zeros((n, 5)), np.tile(np.diag(INITIAL_VAR), (n, 1, 1))
    failures = {}
    Q, R = np.diag(PROCESS_VAR), np.diag(MEASUREMENT_VAR)
    # a degenerate track overflows to inf or NaN, which _checked reports
    with np.errstate(over="ignore", invalid="ignore"):
        for b, track in enumerate(tracks):
            if len(track) < 3:
                failures[b] = ConfigError("EKF initialization needs at least 3 measurements")
                continue
            t[b, :len(track)], xy[b, :len(track)] = track.t, track.xy
            step = track.xy[1] - track.xy[0]
            speed = float(np.linalg.norm(step) / (track.t[1] - track.t[0]))
            theta = math.atan2(step[1], step[0]) if speed > 1e-9 else 0.0
            states[b] = (*track.xy[1], theta, speed, 0.0)
        live = _checked(states, covs, np.flatnonzero(lengths >= 3), failures)
        for k in range(2, longest):
            live = live[lengths[live] > k]
            dt = t[live, k] - t[live, k - 1]
            before = states[live]
            # the transcendentals stay on math, one position at a time, as the
            # initial atan2 does: numpy's tan and arctan2 round some inputs
            # differently
            trig = np.empty((len(live), 4))
            moved = np.ones(len(live), dtype=bool)
            for i, ((x, y, theta, v, delta), step) in enumerate(zip(before.tolist(), dt.tolist())):
                trig[i] = math.sin(theta), math.cos(theta), math.tan(delta), math.cos(delta) ** 2
                try:
                    states[live[i], :3] = _motion_step(x, y, theta, v, delta, step)
                except ValueError as e:
                    failures[live[i]] = e
                    moved[i] = False
            live, dt, v, (sin, cos, tan, cos2) = live[moved], dt[moved], before[moved, 3], trig[moved].T
            # first-order linearization of the bicycle kinematics
            F = np.tile(np.eye(5), (len(live), 1, 1))
            F[:, 0, 2] = -v * sin * dt
            F[:, 0, 3] = cos * dt
            F[:, 1, 2] = v * cos * dt
            F[:, 1, 3] = sin * dt
            F[:, 2, 3] = tan / WHEELBASE * dt
            F[:, 2, 4] = v / (WHEELBASE * cos2) * dt
            covs[live] = F @ covs[live] @ F.transpose(0, 2, 1) + Q
            live = _checked(states, covs, live, failures)
            cov = covs[live]
            inverse, served = _each(np.linalg.inv, H @ cov @ H.T + R, live, failures)
            live, cov = live[served], cov[served]
            K = cov @ H.T @ inverse[served]
            innovation = xy[live, k] - states[live, :2]
            states[live] += (K @ innovation[:, :, None])[:, :, 0]
            covs[live] = (np.eye(5) - K @ H) @ cov
            live = _checked(states, covs, live, failures)
    return states, covs, failures


def ekf_run(tracks: list[PastTrack]):
    """Filter a batch of past tracks, each as if alone: seeded from its first
    two samples, then one predict and one correct per later sample, until its
    own track ends. Returns the states (x, y, heading, speed, steering) after
    each track's last sample, (B, 5), and their covariances, (B, 5, 5). A
    position that fails drops out; after the pass, the failure of the lowest
    failing position is raised, that position being its `position`."""
    states, covs, failures = _filter(tracks)
    if failures:
        position = min(failures)
        failures[position].position = position
        raise failures[position]
    return states, covs


def ekf_predict_trajectory(state: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """Dead-reckon from a filtered state with frozen speed and steering;
    (steps, 2) positions."""
    x, y, theta, v, delta = state
    out = np.empty((steps, 2))
    for k in range(steps):
        x, y, theta = _motion_step(x, y, theta, v, delta, dt)
        out[k] = (x, y)
    return out


def rasterize_positions(xy: np.ndarray, world: GridWorld) -> np.ndarray:
    """Nearest-cell mapping of continuous positions, clipped to the grid."""
    xy = np.asarray(xy, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ConfigError(f"positions must be (n, 2), got {xy.shape}")
    cols = np.clip(np.floor(xy[:, 0] / world.resolution), 0, world.cols - 1)
    rows = np.clip(np.floor(xy[:, 1] / world.resolution), 0, world.rows - 1)
    return np.stack([rows, cols], axis=1).astype(np.int64)


def _forecast(state: np.ndarray, demo: Demonstration) -> np.ndarray:
    """Dead-reckon one filtered state over the demo's horizon and rasterize:
    horizon cells, the first being the filter's current cell. The prediction
    step dt is chosen so one step spans about one cell, whichever way the
    filtered speed points."""
    dt = demo.world.resolution / max(abs(state[3]), 0.1)
    xy = np.vstack([state[:2], ekf_predict_trajectory(state, demo.horizon - 1, dt)])
    return rasterize_positions(xy, demo.world)


def ekf_forecast_cells(demos: list[Demonstration]) -> list[np.ndarray]:
    """Full EKF pipeline for a batch of demos: filter their pasts in one
    `ekf_run` pass, then dead-reckon and rasterize each future (`_forecast`).
    A failure carries the failing demo's `position`, as `ekf_run`'s does."""
    states, _ = ekf_run([demo.past for demo in demos])
    cells = []
    for position, (state, demo) in enumerate(zip(states, demos)):
        try:
            cells.append(_forecast(state, demo))
        except ValueError as e:  # a forecast step past the float range
            e.position = position
            raise
    return cells


# ---------------------------------------------------------------------------
# behavior cloning

def bc_policy(net, scene) -> Policy:
    """Per-cell action distribution of the cloning head for one scene or demo."""
    logits = forward(net, scene)[0]
    return Policy(probs=softmax(logits, axis=0))
