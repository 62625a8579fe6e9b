"""Comparison predictors: bicycle-model EKF and behavior cloning (the uniform
random baseline is `mdp.uniform_policy`).

The EKF filters the state (x, y, heading, speed, steering) and its covariance
from position measurements alone, with the fixed diagonal variances
PROCESS_VAR, MEASUREMENT_VAR and INITIAL_VAR, and forecasts by freezing speed
and steering. The behavior-cloning policy is the softmax of a 4-channel action
head that reads the exact IRL input stack (same code path); `trainer.bc_train`
fits it with cross-entropy. The kinematics-free IRL ablation is the trainer
run on an `env_only` net.
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


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def _checked(state: np.ndarray, cov: np.ndarray):
    """The state with its heading wrapped and the covariance symmetrised,
    once both are finite and the covariance is positive semi-definite."""
    cov = 0.5 * (cov + cov.T)
    if not (np.isfinite(state).all() and np.isfinite(cov).all()):
        raise ConvergenceError("EKF state or covariance is not finite")
    if float(np.linalg.eigvalsh(cov).min()) < -1e-8:
        raise ConvergenceError("EKF covariance is not positive semi-definite")
    state[2] = wrap_angle(float(state[2]))
    return state, cov


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


def _motion_jacobian(theta, v, delta, dt):
    # first-order linearization of the bicycle kinematics
    F = np.eye(5)
    F[0, 2] = -v * math.sin(theta) * dt
    F[0, 3] = math.cos(theta) * dt
    F[1, 2] = v * math.cos(theta) * dt
    F[1, 3] = math.sin(theta) * dt
    F[2, 3] = math.tan(delta) / WHEELBASE * dt
    F[2, 4] = v / (WHEELBASE * math.cos(delta) ** 2) * dt
    return F


def ekf_run(track: PastTrack):
    """Filter a whole past track: seeded from its first two samples, then one
    predict and one correct per later sample. Returns the state (x, y,
    heading, speed, steering) after the last sample, and its covariance."""
    if len(track) < 3:
        raise ConfigError("EKF initialization needs at least 3 measurements")
    Q, R = np.diag(PROCESS_VAR), np.diag(MEASUREMENT_VAR)
    # a degenerate track overflows to inf or NaN, which _checked reports
    with np.errstate(over="ignore", invalid="ignore"):
        step = track.xy[1] - track.xy[0]
        speed = float(np.linalg.norm(step) / (track.t[1] - track.t[0]))
        theta = math.atan2(step[1], step[0]) if speed > 1e-9 else 0.0
        state, cov = _checked(np.array([*track.xy[1], theta, speed, 0.0]),
                              np.diag(INITIAL_VAR))
        for k in range(2, len(track)):
            dt = float(track.t[k] - track.t[k - 1])
            x, y, theta, v, delta = state
            F = _motion_jacobian(theta, v, delta, dt)
            state, cov = _checked(np.array([*_motion_step(x, y, theta, v, delta, dt), v, delta]),
                                  F @ cov @ F.T + Q)
            K = cov @ H.T @ np.linalg.inv(H @ cov @ H.T + R)
            state, cov = _checked(state + K @ (track.xy[k] - state[:2]),
                                  (np.eye(5) - K @ H) @ cov)
    return state, cov


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


def ekf_forecast_cells(demo: Demonstration) -> np.ndarray:
    """Full EKF pipeline for one demo: filter the past, dead-reckon the future,
    rasterize. Returns horizon cells, the first being the filter's current cell.
    The prediction step dt is chosen so one step spans about one cell."""
    state, _ = ekf_run(demo.past)
    dt = demo.world.resolution / max(state[3], 0.1)
    xy = np.vstack([state[:2], ekf_predict_trajectory(state, demo.horizon - 1, dt)])
    return rasterize_positions(xy, demo.world)


# ---------------------------------------------------------------------------
# behavior cloning

def bc_policy(net, demo: Demonstration) -> Policy:
    """Per-cell action distribution of the cloning head for one demo context."""
    logits = forward(net, demo)[0]
    return Policy(probs=softmax(logits, axis=0))
