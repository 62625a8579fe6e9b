"""Velocity discretization, circle-fit curvature vs grid-search oracle, input stack."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_world
from meirl.errors import ConfigError
from meirl.kinematics import (KinematicContext, PastTrack,
                              build_input_stack, extract_velocity, fit_curvature,
                              kinematic_context, positional_channels)


def track_from_xy(xy, dt=0.1):
    xy = np.asarray(xy, dtype=float)
    t = np.arange(len(xy)) * dt
    return PastTrack(t=t, xy=xy)


def straight_track(speed, heading_deg, n=20, dt=0.1):
    u = np.array([math.cos(math.radians(heading_deg)), math.sin(math.radians(heading_deg))])
    pts = np.arange(n)[:, None] * (speed * dt) * u[None, :]
    return track_from_xy(pts, dt)


def arc_track(radius, start_angle, end_angle, n=20, center=(0.0, 0.0)):
    """CCW if end_angle > start_angle."""
    ang = np.linspace(start_angle, end_angle, n)
    xy = np.stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)], axis=1)
    return track_from_xy(xy)


def circle_fit_oracle(xy, span=15.0, steps=301):
    """Brute-force grid search over centers; radius is the mean distance."""
    cx0, cy0 = xy.mean(axis=0)
    cs = np.linspace(-span, span, steps)
    centers = np.stack(np.meshgrid(cx0 + cs, cy0 + cs), axis=-1).reshape(-1, 2)
    d = np.linalg.norm(xy[None, :, :] - centers[:, None, :], axis=2)
    r = d.mean(axis=1)
    cost = ((d - r[:, None]) ** 2).sum(axis=1)
    return 1.0 / r[np.argmin(cost)]


# ---------------------------------------------------------------------------
# track type

def test_track_validation():
    with pytest.raises(ConfigError):
        PastTrack(t=np.array([0.0, 0.0, 0.1]), xy=np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        PastTrack(t=np.array([0.0, 0.1]), xy=np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        PastTrack(t=np.array([]), xy=np.zeros((0, 2)))


def test_track_refuses_an_infinite_step_speed():
    t = np.array([0.0, 0.1, 0.2])
    xy = np.array([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]])
    for bad_t, bad_xy, step in ((np.array([0.0, 5e-324, 0.1]), xy, 0),  # subnormal dt
                                (t, [[0.0, 0.0], [0.2, 0.0], [0.2, 1e308]], 1)):  # overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^track step {step} implies an infinite"):
                PastTrack(t=bad_t, xy=bad_xy)
    # one ulp after 0.1 s: a speed above 1e16 m/s, finite, so the track stands
    assert len(PastTrack(t=np.array([0.0, 0.1, np.nextafter(0.1, 1.0)]), xy=xy)) == 3


def test_velocity_needs_two_samples():
    tr = PastTrack(t=np.array([0.0]), xy=np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        extract_velocity(tr)


# ---------------------------------------------------------------------------
# velocity

def test_velocity_full_speed_east():
    tr = straight_track(10.0, 0.0)
    assert extract_velocity(tr) == (1.0, 0.0)


def test_velocity_stationary():
    tr = track_from_xy(np.zeros((5, 2)))
    assert extract_velocity(tr) == (0.0, 0.0)


def test_velocity_out_and_back_has_no_direction():
    # it moves at 10 m/s, but ends where it began: no axis to put the speed on
    tr = track_from_xy([(0, 0), (1, 0), (2, 0), (1, 0), (0, 0)])
    assert extract_velocity(tr) == (0.0, 0.0)


def test_velocity_angled_keeps_speed_magnitude():
    tr = straight_track(5.0, 30.0)
    dx, dy = extract_velocity(tr)
    assert dx == pytest.approx(0.5, abs=1e-12)
    assert dy == 0.0


def test_velocity_dominant_axis_and_sign():
    tr = straight_track(4.0, 120.0)  # mostly +y, negative x
    dx, dy = extract_velocity(tr)
    assert dx == 0.0
    assert dy == pytest.approx(0.4, abs=1e-12)
    tr = straight_track(4.0, 260.0)  # mostly -y
    dx, dy = extract_velocity(tr)
    assert dx == 0.0
    assert dy == pytest.approx(-0.4, abs=1e-12)


def test_velocity_saturates_at_norm():
    tr = straight_track(25.0, 0.0)
    assert extract_velocity(tr) == (1.0, 0.0)


def test_velocity_uses_arc_length_speed():
    # an L-shaped path: net displacement underestimates how fast it drove
    leg1 = np.stack([np.linspace(0, 5, 11), np.zeros(11)], axis=1)
    leg2 = np.stack([np.full(10, 5.0), np.linspace(0.5, 5, 10)], axis=1)
    tr = track_from_xy(np.vstack([leg1, leg2]))
    speed = 10.0 / tr.t[-1]  # 10 m of path over the window
    dx, dy = extract_velocity(tr)
    assert max(abs(dx), abs(dy)) == pytest.approx(min(speed / 10.0, 1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# curvature

def test_curvature_ccw_circle_radius_five():
    tr = arc_track(5.0, 0.0, 1.2)
    assert fit_curvature(tr) == pytest.approx(0.2, abs=1e-9)


def test_curvature_cw_circle_is_negative():
    tr = arc_track(5.0, 1.2, 0.0)
    assert fit_curvature(tr) == pytest.approx(-0.2, abs=1e-9)


def test_curvature_collinear_zero():
    tr = straight_track(3.0, 40.0)
    assert fit_curvature(tr) == 0.0


def test_curvature_zigzag_whose_turns_cancel_is_zero():
    # both fit a circle of radius well under the cutoff; the turns right,
    # left, right of the longer one do not cancel, so only it is curved
    assert fit_curvature(track_from_xy([(0, 0), (1, 1), (2, 0), (3, 1)])) == 0.0
    assert fit_curvature(track_from_xy([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)])) < 0.0


def test_curvature_needs_three_samples():
    tr = PastTrack(t=np.array([0.0, 0.1]), xy=np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ConfigError):
        fit_curvature(tr)


def test_curvature_noisy_arc_vs_grid_search_oracle():
    rng = np.random.default_rng(42)
    tr = arc_track(10.0, 0.3, 1.8, n=25)
    noisy = tr.xy + rng.normal(scale=0.05, size=tr.xy.shape)
    tr = PastTrack(t=tr.t, xy=noisy)
    kappa = fit_curvature(tr)
    assert abs(kappa - 0.1) < 0.01
    oracle = circle_fit_oracle(noisy)
    assert abs(kappa - oracle) < 0.01


def test_curvature_huge_radius_treated_straight():
    tr = arc_track(5e4, 0.0, 1e-3, n=30)
    assert fit_curvature(tr) == 0.0


@settings(max_examples=40, deadline=None)
@given(angle=st.floats(0, 2 * math.pi), tx=st.floats(-50, 50), ty=st.floats(-50, 50))
def test_curvature_magnitude_rigid_invariant(angle, tx, ty):
    base = arc_track(8.0, 0.1, 1.4, n=18)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    moved = base.xy @ rot.T + np.array([tx, ty])
    k0 = fit_curvature(base)
    k1 = fit_curvature(PastTrack(t=base.t, xy=moved))
    assert abs(abs(k0) - abs(k1)) < 1e-9
    assert np.sign(k0) == np.sign(k1)  # proper rotation keeps orientation


def test_curvature_mirror_flips_sign():
    tr = arc_track(5.0, 0.0, 1.2)
    mirrored = PastTrack(t=tr.t, xy=tr.xy * np.array([1.0, -1.0]))
    assert fit_curvature(mirrored) == pytest.approx(-fit_curvature(tr), abs=1e-12)


def test_velocity_rotation_quarter_turn():
    tr = straight_track(6.0, 10.0)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # +90 degrees
    rotated = PastTrack(t=tr.t, xy=tr.xy @ rot.T)
    dx, dy = extract_velocity(tr)
    rx, ry = extract_velocity(rotated)
    assert (rx, ry) == (-dy, dx)


# ---------------------------------------------------------------------------
# context assembly

def test_context_clamps_and_normalizes_kappa():
    tr = arc_track(5.0, 0.0, 1.2)  # raw kappa +0.2
    ctx = kinematic_context(tr)
    assert ctx.kappa == pytest.approx(0.4, abs=1e-9)
    tight = arc_track(1.0, 0.0, 1.2)  # raw kappa +1.0, clamps to max
    ctx = kinematic_context(tight)
    assert ctx.kappa == 1.0


def test_context_rejects_diagonal_velocity():
    with pytest.raises(ConfigError):
        KinematicContext(dx=0.5, dy=0.5, kappa=0.0)
    with pytest.raises(ConfigError):
        KinematicContext(dx=1.5, dy=0.0, kappa=0.0)


# ---------------------------------------------------------------------------
# positional channels and stack

def test_positional_channels_80_grid():
    world = make_world(rows=80, cols=80)
    pos = positional_channels(world, (0, 0))
    assert pos[0, 0, 79] == pytest.approx(79 / 80)
    assert pos[0, 0, 0] == 0.0
    assert pos[1, 79, 0] == pytest.approx(79 / 80)
    assert np.abs(pos).max() <= 1.0


def test_positional_channels_translation_shift():
    world = make_world(rows=16, cols=16)
    a = positional_channels(world, (4, 4))
    b = positional_channels(world, (4, 5))
    assert np.allclose(a[0] - b[0], 1 / 16, atol=1e-12)
    assert np.array_equal(a[1], b[1])


def test_positional_channels_zero_at_vehicle():
    world = make_world(rows=12, cols=9)
    pos = positional_channels(world, (7, 3))
    assert pos[0, 7, 3] == 0.0
    assert pos[1, 7, 3] == 0.0


def test_build_input_stack_layout(rng):
    world = make_world(rows=10, cols=10)
    feats = rng.normal(size=(25, 10, 10))
    ctx = KinematicContext(dx=0.5, dy=0.0, kappa=-0.2)
    stack = build_input_stack(feats, world, (5, 5), ctx)
    assert stack.shape == (30, 10, 10)
    assert np.array_equal(stack[:25], feats)
    assert np.all(stack[27] == 0.5)
    assert np.all(stack[28] == 0.0)
    assert np.all(stack[29] == -0.2)


def test_build_input_stack_shape_mismatch(rng):
    world = make_world(rows=10, cols=10)
    with pytest.raises(ConfigError):
        build_input_stack(rng.normal(size=(25, 9, 10)), world, (5, 5),
                          KinematicContext(0.0, 0.0, 0.0))
