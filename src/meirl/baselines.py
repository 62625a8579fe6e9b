"""Comparison predictors: bicycle-model EKF and behavior cloning (the uniform
random baseline is `mdp.uniform_policy`).

The EKF estimates (x, y, heading, speed, steering) from position measurements
alone and forecasts by freezing speed and steering. The behavior-cloning
policy is the softmax of a 4-channel action head that reads the exact IRL
input stack (same code path); `trainer.bc_train` fits it with cross-entropy.
The kinematics-free IRL ablation is the trainer run on an `env_only` net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .kinematics import PastTrack
from .mdp import GridWorld, Policy, annealed_softmax
from .reward_net import forward
from .synthetic import Demonstration

WHEELBASE = 1.8


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass
class EkfNoise:
    process: tuple = (0.01, 0.01, 0.005, 0.1, 0.01)
    measurement: tuple = (0.05, 0.05)

    def __post_init__(self):
        self.process = tuple(float(v) for v in self.process)
        self.measurement = tuple(float(v) for v in self.measurement)
        if len(self.process) != 5 or len(self.measurement) != 2:
            raise ConfigError("EKF noise needs 5 process and 2 measurement variances")
        if any(v < 0 for v in self.process + self.measurement):
            raise ConfigError("noise variances must be nonnegative")


@dataclass
class EkfState:
    x: float
    y: float
    theta: float
    v: float
    delta: float
    cov: np.ndarray

    def __post_init__(self):
        self.theta = wrap_angle(float(self.theta))
        self.cov = np.asarray(self.cov, dtype=np.float64)
        if self.cov.shape != (5, 5):
            raise ConfigError(f"EKF covariance must be 5x5, got {self.cov.shape}")
        _check_psd(self.cov)

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta, self.v, self.delta])


def _check_psd(cov: np.ndarray) -> None:
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ConvergenceError("EKF covariance lost symmetry")
    if float(np.linalg.eigvalsh(cov).min()) < -1e-8:
        raise ConvergenceError("EKF covariance is not positive semi-definite")


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


def ekf_predict(state: EkfState, dt: float, noise: EkfNoise | None = None) -> EkfState:
    if dt <= 0:
        raise ConfigError("EKF time step must be positive")
    noise = noise or EkfNoise()
    x, y, theta = _motion_step(state.x, state.y, state.theta, state.v, state.delta, dt)
    F = _motion_jacobian(state.theta, state.v, state.delta, dt)
    cov = F @ state.cov @ F.T + np.diag(noise.process)
    cov = 0.5 * (cov + cov.T)
    return EkfState(x=x, y=y, theta=theta, v=state.v, delta=state.delta, cov=cov)


def ekf_update(state: EkfState, measurement, dt: float,
               noise: EkfNoise | None = None) -> EkfState:
    """One predict-correct cycle against a position measurement."""
    noise = noise or EkfNoise()
    pred = ekf_predict(state, dt, noise)
    z = np.asarray(measurement, dtype=np.float64)
    if z.shape != (2,):
        raise ConfigError(f"EKF measurement must be (x, y), got shape {z.shape}")
    H = np.zeros((2, 5))
    H[0, 0] = 1.0
    H[1, 1] = 1.0
    S = H @ pred.cov @ H.T + np.diag(noise.measurement)
    K = pred.cov @ H.T @ np.linalg.inv(S)
    innovation = z - np.array([pred.x, pred.y])
    mean = pred.mean + K @ innovation
    cov = (np.eye(5) - K @ H) @ pred.cov
    cov = 0.5 * (cov + cov.T)
    return EkfState(x=mean[0], y=mean[1], theta=mean[2], v=mean[3], delta=mean[4], cov=cov)


def ekf_init(track: PastTrack) -> EkfState:
    """Seed the filter from the first two samples of a track (the track itself
    must carry at least three, so at least one correction follows)."""
    if len(track) < 3:
        raise ConfigError("EKF initialization needs at least 3 measurements")
    dt = track.t[1] - track.t[0]
    step = track.xy[1] - track.xy[0]
    speed = float(np.linalg.norm(step) / dt)
    theta = math.atan2(step[1], step[0]) if speed > 1e-9 else 0.0
    cov = np.diag([0.1, 0.1, 0.5, 1.0, 0.1])
    return EkfState(x=float(track.xy[1, 0]), y=float(track.xy[1, 1]),
                    theta=theta, v=speed, delta=0.0, cov=cov)


def ekf_run(track: PastTrack, noise: EkfNoise | None = None) -> EkfState:
    """Filter a whole past track; returns the state after the last measurement."""
    state = ekf_init(track)
    for k in range(2, len(track)):
        dt = float(track.t[k] - track.t[k - 1])
        state = ekf_update(state, track.xy[k], dt, noise)
    return state


def ekf_predict_trajectory(state: EkfState, horizon_steps: int, dt: float) -> np.ndarray:
    """Dead-reckon with frozen speed and steering; (horizon_steps, 2) positions."""
    if horizon_steps < 1:
        raise ConfigError("prediction horizon must be at least 1 step")
    if dt <= 0:
        raise ConfigError("EKF time step must be positive")
    out = np.empty((horizon_steps, 2))
    x, y, theta = state.x, state.y, state.theta
    for k in range(horizon_steps):
        x, y, theta = _motion_step(x, y, theta, state.v, state.delta, dt)
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


def ekf_forecast_cells(demo: Demonstration, noise: EkfNoise | None = None) -> np.ndarray:
    """Full EKF pipeline for one demo: filter the past, dead-reckon the future,
    rasterize. Returns horizon cells, the first being the filter's current cell.
    The prediction step dt is chosen so one step spans about one cell."""
    state = ekf_run(demo.past, noise)
    dt = demo.world.resolution / max(state.v, 0.1)
    cells = [rasterize_positions(np.array([[state.x, state.y]]), demo.world)[0]]
    if demo.horizon > 1:
        xy = ekf_predict_trajectory(state, demo.horizon - 1, dt)
        cells.extend(rasterize_positions(xy, demo.world))
    return np.array(cells, dtype=np.int64)


# ---------------------------------------------------------------------------
# behavior cloning

def bc_policy(net, demo: Demonstration) -> Policy:
    """Per-cell action distribution of the cloning head for one demo context."""
    logits = forward(net, demo)[0]
    return Policy(probs=annealed_softmax(logits, 1.0, axis=0))
