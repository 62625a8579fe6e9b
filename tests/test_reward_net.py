"""Architecture shape/receptive-field checks and finite-difference gradient audits."""

import math

import numpy as np
import pytest

from conftest import make_world, rand_env
from meirl.checkpoint import save_checkpoint
from meirl.errors import ConfigError
from meirl.kinematics import (KAPPA_MAX, SPEED_NORM, KinematicContext, PastTrack,
                              build_input_stack, kinematic_context)
from meirl.mdp import GridWorld, cells_to_xy
from meirl.nn import ParameterStore, leaky_relu
from meirl.reward_net import (KINDS, STAGE1_DILATIONS, STAGE1_WIDTHS, action_logits, backward,
                              build_net, forward, load_net, reward_forward,
                              reward_from_env, stage1_forward)
from meirl.synthetic import Scene

CTX0 = KinematicContext(dx=0.0, dy=0.0, kappa=0.0)


def two_stage_reward(net, world, cell, ctx):
    feats, _ = stage1_forward(net, world.env)
    stack = build_input_stack(feats, world, cell, ctx)
    return reward_forward(net, stack)[0]


def context_scene(world, cell, ctx):
    """A scene at the cell whose past is an arc at the speed, heading and
    curvature of ctx ending at the cell centre. Its kinematic context is ctx
    up to the speed lost between arc and chords (about 1e-4)."""
    speed = SPEED_NORM * max(abs(ctx.dx), abs(ctx.dy))
    heading = math.atan2(ctx.dy, ctx.dx)
    k = ctx.kappa * KAPPA_MAX
    t = np.linspace(-0.4, 0.0, 5)
    s = speed * t  # arc length, zero at the cell
    if k:
        offset = np.stack([np.sin(heading + k * s) - math.sin(heading),
                           math.cos(heading) - np.cos(heading + k * s)], axis=1) / k
    else:
        offset = s[:, None] * np.array([math.cos(heading), math.sin(heading)])
    past = PastTrack(t=t, xy=cells_to_xy([cell], world.resolution)[0] + offset)
    return Scene(world, past, cell)


def zero_kinematic_input_weights(net):
    """Ablation: silence the dx/dy/kappa channels at the stage-2 entry, in place."""
    net.stage2[0].kernel[:, 27:, :, :] = 0.0


def constant_plane_oracle(layers, c_in):
    """Track a spatially constant activation through the stack as a pure vector
    recurrence: each conv collapses to its kernel summed over taps, and every
    layer but the last is followed by a leaky ReLU."""
    c = np.asarray(c_in, dtype=float)
    for i, layer in enumerate(layers):
        c = layer.kernel.sum(axis=(2, 3)) @ c + layer.bias
        if i < len(layers) - 1:
            c = leaky_relu(c)
    return c


# ---------------------------------------------------------------------------
# construction

def test_two_stage_architecture():
    net = build_net("two_stage", seed=0)
    assert [l.out_channels for l in net.stage1] == list(STAGE1_WIDTHS)
    assert [l.dilation for l in net.stage1] == list(STAGE1_DILATIONS)
    assert net.stage1[0].in_channels == 5
    assert [l.out_channels for l in net.stage2] == [16, 8, 1]
    assert net.stage2[0].in_channels == 30
    assert all(l.dilation == 1 for l in net.stage2)


def test_variant_architectures():
    env_net = build_net("env_only", seed=1)
    assert [l.out_channels for l in env_net.stage1] == [16, 24, 24, 1]
    assert env_net.stage2 == []
    act_net = build_net("action_head", seed=2)
    assert act_net.stage2[-1].out_channels == 4
    with pytest.raises(ConfigError):
        build_net("mystery")


def test_build_net_seeded():
    a = build_net("two_stage", seed=9)
    b = build_net("two_stage", seed=9)
    for k, v in a.parameters().items():
        assert np.array_equal(v, b.parameters()[k])


def test_forward_shapes(rng):
    world = make_world(rows=12, cols=14)
    net = build_net("two_stage", seed=3)
    feats, _ = stage1_forward(net, world.env)
    assert feats.shape == (25, 12, 14)
    r = two_stage_reward(net, world, (6, 6), CTX0)
    assert r.shape == (12, 14)
    env_net = build_net("env_only", seed=3)
    assert reward_from_env(env_net, world.env)[0].shape == (12, 14)
    act_net = build_net("action_head", seed=3)
    feats, _ = stage1_forward(act_net, world.env)
    stack = build_input_stack(feats, world, (6, 6), CTX0)
    assert action_logits(act_net, stack)[0].shape == (4, 12, 14)
    scene = context_scene(world, (6, 6), CTX0)
    assert [forward(build_net(kind, seed=3), scene)[0].shape for kind in KINDS] \
        == [(12, 14), (12, 14), (4, 12, 14)]


def test_kind_mismatch_raises(rng):
    net = build_net("env_only", seed=0)
    with pytest.raises(ConfigError):
        reward_forward(net, np.zeros((30, 8, 8)))


# ---------------------------------------------------------------------------
# constant-input oracle

@pytest.mark.parametrize("shape, message", [
    ((16, 16), r"input must be \(channels, rows, cols\), got shape \(16, 16\)"),
    ((4, 16, 16), "input has 4 channels, layer expects 5"),
])
def test_stage1_refuses_an_env_of_the_wrong_shape(shape, message):
    # the first conv's input check is the only one on the terrain channels
    net = build_net("two_stage", seed=0)
    with pytest.raises(ConfigError, match=message):
        stage1_forward(net, np.zeros(shape))


def test_zero_env_interior_matches_bias_recurrence():
    net = build_net("two_stage", seed=5)
    rng = np.random.default_rng(55)
    for layer in net.stage1:
        layer.bias[:] = rng.normal(scale=0.5, size=layer.bias.shape)
    out, _ = stage1_forward(net, np.zeros((5, 40, 40)))
    expect = constant_plane_oracle(net.stage1, np.zeros(5))
    interior = out[:, 12:28, 12:28]
    assert np.allclose(interior, expect[:, None, None], atol=1e-12)
    # borders feel the zero padding, so the map is not globally constant
    assert not np.allclose(out, expect[:, None, None], atol=1e-12)


def test_constant_stack_interior_matches_recurrence():
    net = build_net("two_stage", seed=6)
    rng = np.random.default_rng(0)
    c = rng.normal(size=30)
    channels = np.broadcast_to(c[:, None, None], (30, 16, 16)).copy()
    out, _ = reward_forward(net, channels)
    expect = constant_plane_oracle(net.stage2, c)
    assert np.allclose(out[4:-4, 4:-4], expect[0], atol=1e-12)


def test_zero_kernels_give_constant_bias_reward(rng):
    world = make_world(rows=10, cols=10, seed=4)
    net = build_net("two_stage", seed=7)
    for layer in net.stage2:
        layer.kernel[:] = 0.0
        layer.bias[:] = 0.0
    net.stage2[-1].bias[:] = 0.7
    r = two_stage_reward(net, world, (5, 5), CTX0)
    assert np.allclose(r, 0.7, atol=1e-15)


# ---------------------------------------------------------------------------
# receptive field and equivariance

def test_stage1_receptive_field_radius_ten():
    net = build_net("env_only", seed=8)
    env = rand_env(np.random.default_rng(3), 24, 24)
    base = reward_from_env(net, env)[0][12, 12]
    bumped = env.copy()
    bumped[:, 1, 12] += 1.0  # 11 rows away: outside the 21x21 window
    assert reward_from_env(net, bumped)[0][12, 12] == base
    bumped = env.copy()
    bumped[:, 2, 12] += 1.0  # 10 rows away: on the window edge
    assert reward_from_env(net, bumped)[0][12, 12] != base


def test_stage1_interior_translation_equivariance():
    net = build_net("two_stage", seed=11)
    env = rand_env(np.random.default_rng(5), 40, 40)
    out1, _ = stage1_forward(net, env)
    out2, _ = stage1_forward(net, np.roll(env, shift=(3, 2), axis=(1, 2)))
    assert np.allclose(out2[:, 13:27, 12:26], out1[:, 10:24, 10:24], atol=1e-12)


# ---------------------------------------------------------------------------
# sensitivity and ablation

def test_reward_depends_on_kinematic_channels():
    world = make_world(rows=12, cols=12, seed=2)
    net = build_net("two_stage", seed=12)
    r0 = two_stage_reward(net, world, (6, 6), CTX0)
    r1 = two_stage_reward(net, world, (6, 6), KinematicContext(0.8, 0.0, 0.0))
    r2 = two_stage_reward(net, world, (6, 6), KinematicContext(0.0, 0.0, -0.6))
    assert np.abs(r1 - r0).max() > 1e-6
    assert np.abs(r2 - r0).max() > 1e-6


def test_ablated_net_ignores_kinematics_but_not_position():
    world = make_world(rows=12, cols=12, seed=2)
    net = build_net("two_stage", seed=12)
    zero_kinematic_input_weights(net)
    r0 = two_stage_reward(net, world, (6, 6), CTX0)
    r1 = two_stage_reward(net, world, (6, 6), KinematicContext(1.0, 0.0, 0.9))
    assert np.array_equal(r0, r1)
    r2 = two_stage_reward(net, world, (3, 9), CTX0)
    assert np.abs(r2 - r0).max() > 1e-6


# ---------------------------------------------------------------------------
# gradients

def test_zero_grad_gives_zero_param_grads():
    world = make_world(rows=10, cols=10, seed=1)
    net = build_net("two_stage", seed=13)
    reward, acts = forward(net, context_scene(world, (5, 5), CTX0))
    grads = backward(net, acts, np.zeros_like(reward))
    assert set(grads) == set(net.parameters())
    for g in grads.values():
        assert not np.any(g)


def fd_coordinate(loss_fn, arr, idx, h=1e-6):
    old = arr[idx]
    arr[idx] = old + h
    lp = loss_fn()
    arr[idx] = old - h
    lm = loss_fn()
    arr[idx] = old
    return (lp - lm) / (2 * h)


def spot_check(net, loss_fn, grads, rng, per_array=3, tol=1e-5):
    params = net.parameters()
    for name, arr in params.items():
        an = grads[name]
        assert an.shape == arr.shape
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(per_array, flat.size), replace=False):
            fd = fd_coordinate(loss_fn, flat, int(idx))
            ref = max(abs(fd), abs(an.reshape(-1)[idx]), 1e-8)
            assert abs(fd - an.reshape(-1)[idx]) / ref < tol, (name, idx)


# kind: (net seed, rng seed, world seed or None for terrain drawn from the rng, context)
FD_CASES = {
    "two_stage": (14, 21, 3, KinematicContext(0.5, 0.0, -0.2)),
    "env_only": (15, 22, None, CTX0),
    "action_head": (16, 23, 6, KinematicContext(0.0, -0.3, 0.1)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_gradients_match_finite_differences(kind):
    net_seed, rng_seed, world_seed, ctx = FD_CASES[kind]
    net = build_net(kind, seed=net_seed)
    rng = np.random.default_rng(rng_seed)
    if world_seed is None:
        world = GridWorld(rows=12, cols=12, resolution=1.0, env=rand_env(rng, 12, 12))
    else:
        world = make_world(rows=12, cols=12, seed=world_seed)
    scene = context_scene(world, (6, 6), ctx)
    got = kinematic_context(scene.past)
    assert [got.dx, got.dy, got.kappa] == pytest.approx([ctx.dx, ctx.dy, ctx.kappa], abs=1e-4)
    out, acts = forward(net, scene)
    w = rng.normal(size=out.shape)

    def loss():
        return float((forward(net, scene)[0] * w).sum())

    spot_check(net, loss, backward(net, acts, w), rng)


def test_grad_shape_mismatch_raises():
    world = make_world(rows=10, cols=10)
    net = build_net("two_stage", seed=17)
    _, acts = forward(net, context_scene(world, (5, 5), CTX0))
    with pytest.raises(ConfigError):
        backward(net, acts, np.zeros((9, 10)))


# ---------------------------------------------------------------------------
# checkpoint round trip

def saved(path, params, meta):
    """`path`, now a checkpoint of `params` (fresh Adam moments) and `meta`."""
    save_checkpoint(path, ParameterStore.create(params, learning_rate=0.001), meta=meta)
    return path


def test_load_net_roundtrip(tmp_path):
    world = make_world(rows=10, cols=10, seed=8)
    net = build_net("two_stage", seed=18)
    path = saved(tmp_path / "net.ckpt", net.parameters(), {"arch": net.arch_meta()})
    rebuilt, store, iteration = load_net(path, "two_stage")
    assert rebuilt.kind == "two_stage" and iteration == 0
    assert rebuilt.parameters().keys() == store.params.keys()
    assert all(a is store.params[name] for name, a in rebuilt.parameters().items())
    r0 = two_stage_reward(net, world, (5, 5), CTX0)
    r1 = two_stage_reward(rebuilt, world, (5, 5), CTX0)
    assert np.array_equal(r0, r1)


def test_load_net_rejects_bad_shapes(tmp_path):
    net = build_net("env_only", seed=19)
    params, path = net.parameters(), tmp_path / "net.ckpt"
    meta = {"arch": net.arch_meta()}
    meta["arch"]["stage1"][0][0] = 99  # lie about the head width
    with pytest.raises(ConfigError):
        load_net(saved(path, params, meta), "env_only")
    with pytest.raises(ConfigError):
        load_net(saved(path, params, {"arch": {"kind": "nope"}}), "env_only")
    for arch in ([1], {"kind": ["env_only"]}, dict(net.arch_meta(), stage1="x")):
        with pytest.raises(ConfigError, match="architecture"):
            load_net(saved(path, params, {"arch": arch}), "env_only")
    short = dict(params, **{"s1.0.bias": np.zeros(3)})
    with pytest.raises(ConfigError, match="shape mismatch"):
        load_net(saved(path, short, {"arch": net.arch_meta()}), "env_only")
    missing = {k: v for k, v in params.items() if k != "s1.3.kernel"}
    with pytest.raises(ConfigError, match="missing"):
        load_net(saved(path, missing, {"arch": net.arch_meta()}), "env_only")


@pytest.mark.parametrize("held, label", [("params", ""), ("m", "Adam m of "), ("v", "Adam v of ")])
def test_load_net_refuses_a_non_finite_parameter_or_moment(tmp_path, held, label):
    net = build_net("env_only", seed=19)
    store = ParameterStore.create(net.parameters(), learning_rate=0.001)
    for name, value in (("s1.1.bias", np.inf), ("s1.3.kernel", np.nan)):
        getattr(store, held)[name].flat[0] = value
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, store, meta={"arch": net.arch_meta()})
    with pytest.raises(ConfigError) as e:
        load_net(path, "env_only")
    assert str(e.value) == f"{path}: checkpoint holds non-finite {label}s1.1.bias, s1.3.kernel"
