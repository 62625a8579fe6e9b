"""Conv substrate: naive-loop, tensordot, scatter-add and one-term-GEMM oracles, finite
differences, Adam, checkpoints."""

import hashlib
import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CORRUPT_META, with_meta_block
from meirl import checkpoint
from meirl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from meirl.errors import ConfigError
from meirl.kinematics import N_FEATURE_CHANNELS
from meirl.nn import (LEAKY_SLOPE, ConvLayer, ParameterStore, _flat_windows, conv2d_backward,
                      conv2d_forward, kaiming_conv, leaky_relu, leaky_relu_grad,
                      update_parameters)
from meirl.reward_net import KINDS, build_net


def conv2d_naive(x, layer):
    """Nested-loop reference convolution, no vectorization."""
    out_ch, in_ch, k, _ = layer.kernel.shape
    d = layer.dilation
    p = d * (k - 1) // 2
    _, h, w = x.shape
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for i in range(h):
            for j in range(w):
                acc = layer.bias[o]
                for c in range(in_ch):
                    for u in range(k):
                        for v in range(k):
                            ii = i + u * d - p
                            jj = j + v * d - p
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += layer.kernel[o, c, u, v] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


def random_layer(rng, in_ch, out_ch, k=3, dilation=1):
    return ConvLayer(kernel=rng.normal(size=(out_ch, in_ch, k, k)),
                     bias=rng.normal(size=out_ch), dilation=dilation)


def tensordot_forward(x, layer):
    """Reference conv: one tensordot per tap over a copied shifted patch."""
    k = layer.kernel.shape[2]
    d, p = layer.dilation, layer.padding
    h, w = x.shape[1], x.shape[2]
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out = np.empty((layer.out_channels, h, w))
    out[:] = layer.bias[:, None, None]
    for u in range(k):
        for v in range(k):
            patch = xp[:, u * d : u * d + h, v * d : v * d + w]
            out += np.tensordot(layer.kernel[:, :, u, v], patch, axes=(1, 0))
    return out


def tensordot_backward(x, layer, grad_out):
    """Adjoints of tensordot_forward, tap by tap on the same patches."""
    k = layer.kernel.shape[2]
    d, p = layer.dilation, layer.padding
    h, w = x.shape[1], x.shape[2]
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    grad_bias = grad_out.sum(axis=(1, 2))
    grad_kernel = np.zeros_like(layer.kernel)
    grad_xp = np.zeros_like(xp)
    for u in range(k):
        for v in range(k):
            patch = xp[:, u * d : u * d + h, v * d : v * d + w]
            grad_kernel[:, :, u, v] = np.tensordot(grad_out, patch, axes=([1, 2], [1, 2]))
            grad_xp[:, u * d : u * d + h, v * d : v * d + w] += np.tensordot(
                layer.kernel[:, :, u, v], grad_out, axes=(0, 0)
            )
    return grad_xp[:, p : p + h, p : p + w], grad_kernel, grad_bias


# ---------------------------------------------------------------------------
# forward

def test_identity_kernel_reproduces_input(rng):
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    layer = ConvLayer(kernel=k, bias=np.zeros(1), dilation=1)
    x = rng.normal(size=(1, 6, 7))
    assert np.array_equal(conv2d_forward(x, layer), x)


def test_zero_input_yields_bias_planes():
    layer = ConvLayer(kernel=np.ones((3, 2, 3, 3)), bias=np.array([1.0, -2.0, 0.5]),
                      dilation=2)
    out = conv2d_forward(np.zeros((2, 5, 5)), layer)
    for o, b in enumerate([1.0, -2.0, 0.5]):
        assert np.array_equal(out[o], np.full((5, 5), b))


@pytest.mark.parametrize("dilation", [1, 2, 3, 4])
def test_forward_matches_naive_oracle(rng, dilation):
    layer = random_layer(rng, in_ch=3, out_ch=2, dilation=dilation)
    x = rng.normal(size=(3, 8, 8))
    fast = conv2d_forward(x, layer)
    slow = conv2d_naive(x, layer)
    assert np.max(np.abs(fast - slow)) < 1e-12


@pytest.mark.parametrize("dilation", list(range(1, 9)))
def test_shape_preserved_for_dilations(rng, dilation):
    layer = random_layer(rng, in_ch=2, out_ch=4, dilation=dilation)
    x = rng.normal(size=(2, 9, 13))
    assert conv2d_forward(x, layer).shape == (4, 9, 13)


def test_forward_linearity(rng):
    layer = random_layer(rng, 2, 3, dilation=2)
    layer0 = ConvLayer(kernel=layer.kernel, bias=np.zeros(3), dilation=2)
    x1 = rng.normal(size=(2, 8, 8))
    x2 = rng.normal(size=(2, 8, 8))
    a, b = 1.7, -0.3
    lhs = conv2d_forward(a * x1 + b * x2, layer0)
    rhs = a * conv2d_forward(x1, layer0) + b * conv2d_forward(x2, layer0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_channel_mismatch_raises(rng):
    layer = random_layer(rng, 3, 2)
    with pytest.raises(ConfigError):
        conv2d_forward(rng.normal(size=(2, 8, 8)), layer)


# ---------------------------------------------------------------------------
# backward

def _fd_loss_grad(fn, arr, h=1e-6):
    """Central differences of a scalar fn wrt every element of arr."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn()
        flat[i] = keep - h
        dn = fn()
        flat[i] = keep
        gflat[i] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize("dilation", [1, 3])
def test_backward_matches_finite_differences(rng, dilation):
    layer = random_layer(rng, in_ch=2, out_ch=3, dilation=dilation)
    x = rng.normal(size=(2, 8, 8))
    g_out = rng.normal(size=(3, 8, 8))

    def loss():
        return float((conv2d_forward(x, layer) * g_out).sum())

    gx, gk, gb = conv2d_backward(x, layer, g_out)
    for got, arr in ((gx, x), (gk, layer.kernel), (gb, layer.bias)):
        want = _fd_loss_grad(loss, arr)
        denom = max(np.abs(want).max(), 1.0)
        assert np.max(np.abs(got - want)) / denom < 1e-5


def test_backward_adjoint_identity(rng):
    # <g, conv(x)> must equal <conv^T(g), x> for the linear part
    layer = random_layer(rng, 2, 2, dilation=2)
    layer = ConvLayer(kernel=layer.kernel, bias=np.zeros(2), dilation=2)
    x = rng.normal(size=(2, 7, 7))
    g = rng.normal(size=(2, 7, 7))
    gx, _, _ = conv2d_backward(x, layer, g)
    lhs = float((conv2d_forward(x, layer) * g).sum())
    rhs = float((gx * x).sum())
    assert abs(lhs - rhs) < 1e-9


def test_backward_shape_mismatch_raises(rng):
    layer = random_layer(rng, 2, 3)
    with pytest.raises(ConfigError):
        conv2d_backward(rng.normal(size=(2, 8, 8)), layer, rng.normal(size=(3, 7, 8)))


# ---------------------------------------------------------------------------
# shifted-window GEMM against the tensordot reference

def _inputs(rng, c, h, w, layout):
    """A (c, h, w) input: contiguous, a leading channel slice of a taller
    stack (as the feature slice of a stage-2 gradient is), or a column-strided
    view."""
    if layout == "channel_slice":
        return rng.normal(size=(N_FEATURE_CHANNELS + c, h, w))[:c]
    if layout == "strided":
        return rng.normal(size=(c, h, 2 * w))[:, :, ::2]
    return rng.normal(size=(c, h, w))


@pytest.mark.parametrize("shape", [(8, 13), (13, 8), (32, 32)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("dilation", [1, 2, 3, 4])
def test_conv_equals_tensordot_reference(rng, shape, k, dilation):
    h, w = shape
    for (in_ch, out_ch), layout in zip(
            [(1, 1), (1, 30), (30, 1), (5, 16), (24, 25), (25, 4), (16, 8)],
            itertools.cycle(["contiguous", "channel_slice", "strided"])):
        layer = random_layer(rng, in_ch, out_ch, k=k, dilation=dilation)
        x = _inputs(rng, in_ch, h, w, layout)
        g_out = _inputs(rng, out_ch, h, w, layout)
        assert np.array_equal(conv2d_forward(x, layer), tensordot_forward(x, layer))
        gx, gk, gb = conv2d_backward(x, layer, g_out)
        want_gx, want_gk, want_gb = tensordot_backward(x, layer, g_out)
        assert np.array_equal(gx, want_gx)
        assert np.array_equal(gb, want_gb)
        assert np.max(np.abs(gk - want_gk)) <= 1e-12 * np.max(np.abs(want_gk))


@pytest.mark.parametrize("shape", [(8, 13), (13, 8), (32, 32)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("dilation", [1, 2, 3, 4])
def test_partial_grad_input_equals_the_reference_channels(rng, shape, k, dilation):
    # the leading channels a caller reads come out with the bits of the full
    # gradient's; at 0 no input gradient is formed, and the parameter
    # gradients are those of the full pass
    h, w = shape
    for (in_ch, out_ch), layout in zip(
            [(1, 1), (1, 30), (30, 1), (5, 16), (24, 25), (25, 4), (16, 8)],
            itertools.cycle(["contiguous", "channel_slice", "strided"])):
        layer = random_layer(rng, in_ch, out_ch, k=k, dilation=dilation)
        x = _inputs(rng, in_ch, h, w, layout)
        g_out = _inputs(rng, out_ch, h, w, layout)
        want_gx = tensordot_backward(x, layer, g_out)[0]
        _, full_gk, full_gb = conv2d_backward(x, layer, g_out)
        for kept in sorted({0, 1, in_ch - 1, in_ch}):
            gx, gk, gb = conv2d_backward(x, layer, g_out, kept)
            if kept == 0:
                assert gx is None
            else:
                assert gx.shape == (kept, h, w)
                assert np.array_equal(gx, want_gx[:kept])
            assert np.array_equal(gk, full_gk) and np.array_equal(gb, full_gb)


@pytest.mark.parametrize("kept", [-1, 3])
def test_grad_channels_outside_the_input_raise(rng, kept):
    layer = random_layer(rng, 2, 3)
    with pytest.raises(ConfigError, match="grad_channels"):
        conv2d_backward(rng.normal(size=(2, 8, 8)), layer, rng.normal(size=(3, 8, 8)), kept)


# ---------------------------------------------------------------------------
# the input gradient against the scatter-add adjoint, on the net's layers

def scatter_grad_input(x, layer, grad_out, grad_channels=None):
    """The input gradient as the transpose of the shifted-window forward: the
    gradient padded by zero junk columns to width wp = w + 2p, and the sum of
    K[:, :formed, u, v].T @ gp added into each tap's window of the flat padded
    input, taps in u, v order, then cropped. `formed` follows conv2d_backward's
    rule, so every row rounds as that of the full product."""
    c, h, w = x.shape
    k, d, p = layer.kernel.shape[2], layer.dilation, layer.padding
    kept = c if grad_channels is None else grad_channels
    formed = min(c, max(kept, 2))
    wp = w + 2 * p
    n = h * wp
    gp = np.zeros((layer.out_channels, n))
    gp.reshape(-1, h, wp)[:, :, :w] = grad_out
    grad_xf = np.zeros((formed, (h + 2 * p + 1) * wp))
    for u in range(k):
        for v in range(k):
            s = u * d * wp + v * d
            grad_xf[:, s : s + n] += layer.kernel[:, :formed, u, v].T @ gp
    return grad_xf.reshape(formed, -1, wp)[:kept, p : p + h, p : p + w]


def _net_layer_shapes():
    """(in_ch, out_ch, dilation, grad_channels) of every conv layer of the
    three net kinds, with the grad_channels reward_net's backward passes."""
    shapes = set()
    for kind in KINDS:
        net = build_net(kind)
        for layers, first in ((net.stage1, 0), (net.stage2, N_FEATURE_CHANNELS)):
            for i, layer in enumerate(layers):
                shapes.add((layer.in_channels, layer.out_channels, layer.dilation,
                            first if i == 0 else None))
    return sorted(shapes, key=str)


NET_LAYER_SHAPES = _net_layer_shapes()


@pytest.mark.parametrize("shape", [(s, s) for s in range(6, 21)] + [(24, 24), (32, 32), (9, 4),
                                                                     (5, 17)])
def test_grad_input_equals_the_scatter_add_bitwise(rng, shape):
    h, w = shape
    for in_ch, out_ch, dilation, kept in NET_LAYER_SHAPES:
        layer = random_layer(rng, in_ch, out_ch, dilation=dilation)
        x = rng.normal(size=(in_ch, h, w))
        g_out = rng.normal(size=(out_ch, h, w))
        for grad_channels in sorted({kept, None}, key=str):
            gx = conv2d_backward(x, layer, g_out, grad_channels)[0]
            if grad_channels == 0:
                assert gx is None
            else:
                assert np.array_equal(gx, scatter_grad_input(x, layer, g_out, grad_channels))


# sha256 of conv2d_forward's output and conv2d_backward's three gradients on
# every layer shape of the net at 12x12 and 20x20: sizes at which a change of
# the flat layout or of the order of a sum moves bits. Re-pinned when each
# flat row went from 2p to p junk columns (ROADMAP 3(a)): the forward at these
# sizes and the 8 -> 1 head's kernel gradient moved in their last bits
PINNED_CONV_DIGEST = "6c56b8a19b37199933e7da645350f85bc354a44b7e7e5fcf8f2fdf475751c0bb"


def test_conv_outputs_are_pinned():
    rng = np.random.default_rng(24)
    digest = hashlib.sha256()
    for size in (12, 20):
        for in_ch, out_ch, dilation, _ in NET_LAYER_SHAPES:
            layer = random_layer(rng, in_ch, out_ch, dilation=dilation)
            x = rng.normal(size=(in_ch, size, size))
            g_out = rng.normal(size=(out_ch, size, size))
            for arr in (conv2d_forward(x, layer),) + conv2d_backward(x, layer, g_out):
                digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_CONV_DIGEST


# sha256 of conv2d_forward's output on every layer shape of the net at the map
# sizes the benchmark and the trainer run (8, 16, 32 and 64), pinned before
# the rows were narrowed to p junk columns: the narrower layout keeps these
# forward bits, while at some other sizes it moves them in the last ulps
PINNED_CONV_FORWARD_DIGEST = "7413968ae89627b2cebc293662594a3ca49eb0b58119b61b8725f21f83b2e434"


def test_conv_forward_bytes_are_pinned_at_the_benchmark_sizes():
    rng = np.random.default_rng(25)
    digest = hashlib.sha256()
    for size in (8, 16, 32, 64):
        for in_ch, out_ch, dilation, _ in NET_LAYER_SHAPES:
            layer = random_layer(rng, in_ch, out_ch, dilation=dilation)
            x = rng.normal(size=(in_ch, size, size))
            digest.update(np.ascontiguousarray(conv2d_forward(x, layer), dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_CONV_FORWARD_DIGEST


# ---------------------------------------------------------------------------
# the p-wide flat rows: taps that run off a row's edge

@pytest.mark.parametrize("shape", [(7, 1), (1, 9), (2, 17), (17, 2), (5, 17)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("dilation", [1, 2, 3, 4])
def test_taps_off_a_row_edge_read_only_zeros(rng, shape, k, dilation):
    # a tap that runs off a row's left edge reads the previous row's trailing
    # zeros, so narrow and flat maps at wide dilations must still match every
    # oracle, and no buffer may hold anything but the data in its junk columns
    h, w = shape
    layer = random_layer(rng, 2, 3, k=k, dilation=dilation)
    p = layer.padding
    x = rng.normal(size=(2, h, w))
    g_out = rng.normal(size=(3, h, w))
    for arr in (x, g_out):
        flat, wp, taps = _flat_windows(arr, layer)
        assert wp == w + p and flat.shape == (len(arr), (h + 2 * p + 2) * wp)
        assert all(s >= 0 and s + h * wp <= flat.shape[1] for _, _, s in taps)
        rows = flat.reshape(len(arr), -1, wp)
        assert np.array_equal(rows[:, p + 1 : p + 1 + h, :w], arr)
        rows[:, p + 1 : p + 1 + h, :w] = 0.0
        assert not rows.any()
    assert np.max(np.abs(conv2d_forward(x, layer) - conv2d_naive(x, layer))) < 1e-12
    gx, gk, gb = conv2d_backward(x, layer, g_out)
    assert np.array_equal(gx, scatter_grad_input(x, layer, g_out))

    def loss():
        return float((conv2d_forward(x, layer) * g_out).sum())

    for got, arr in ((gx, x), (gk, layer.kernel), (gb, layer.bias)):
        want = _fd_loss_grad(loss, arr)
        assert np.max(np.abs(got - want)) / max(np.abs(want).max(), 1.0) < 1e-5


# ---------------------------------------------------------------------------
# one-column products by broadcast

def gemm_correlate(acc, flat, kernel, taps):
    """_correlate with every tap as a matrix product, one-column kernels too."""
    n = acc.shape[1]
    for u, v, s in taps:
        acc += kernel[:, :, u, v] @ flat[:, s : s + n]
    return acc


def _with_signed_zeros(rng, arr):
    flat = arr.reshape(-1)
    flat[rng.choice(flat.size, size=flat.size // 4, replace=False)] = 0.0
    flat[rng.choice(flat.size, size=flat.size // 4, replace=False)] = -0.0
    return arr


@pytest.mark.parametrize("shape", [(16, 16), (7, 1), (1, 1)])
def test_one_column_products_have_the_bits_of_one_term_gemms(rng, shape):
    # the input gradient of the one-channel heads (8 -> 1 at dilation 1, 24 -> 1
    # at dilation 4) and the forward of one-input layers, signed zeros included
    h, w = shape
    for in_ch, dilation in ((8, 1), (24, 4)):
        layer = random_layer(rng, in_ch, 1, dilation=dilation)
        x = rng.normal(size=(in_ch, h, w))
        g_out = _with_signed_zeros(rng, rng.normal(size=(1, h, w)))
        gf, wp, taps = _flat_windows(g_out, layer)
        flipped = layer.kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        want = gemm_correlate(np.zeros((in_ch, h * wp)), gf, flipped, taps[::-1])
        got = conv2d_backward(x, layer, g_out)[0]
        assert got.tobytes() == want.reshape(in_ch, h, wp)[:, :, :w].tobytes()
    for out_ch, k, dilation in itertools.product((30, 1), (1, 3, 5), (1, 4)):
        layer = random_layer(rng, 1, out_ch, k=k, dilation=dilation)
        x = _with_signed_zeros(rng, rng.normal(size=(1, h, w)))
        xf, wp, taps = _flat_windows(x, layer)
        want = np.empty((out_ch, h * wp))
        want[:] = layer.bias[:, None]
        gemm_correlate(want, xf, layer.kernel, taps)
        got = conv2d_forward(x, layer)
        assert got.tobytes() == want.reshape(out_ch, h, wp)[:, :, :w].tobytes()


# ---------------------------------------------------------------------------
# activation

def test_leaky_relu_values():
    x = np.array([2.0, -1.0, 0.0])
    assert np.allclose(leaky_relu(x), [2.0, -0.01, 0.0])


def _leaky_inputs(rng, shape):
    """Random values of mixed sign with NaN, +-0, +-inf and +-subnormals
    spread through them."""
    x = rng.normal(size=shape)
    tiny = np.finfo(np.float64).smallest_subnormal
    specials = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                         1e-310, -1e-310, 1e-322, -1e-322])
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=8 * specials.size, replace=False)
    flat[at] = np.tile(specials, 8)
    return x


def _bit_equal(got, want):
    return (got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("shape", [(24, 16, 16), (24, 32, 32)])
def test_leaky_pair_equals_the_select_bitwise(rng, shape):
    # both are branch-free forms of np.where; the gradient's form rests on
    # its two factors being exactly 1 and LEAKY_SLOPE
    assert (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE == 1.0
    x = _leaky_inputs(rng, shape)
    g = _leaky_inputs(rng, shape)
    with np.errstate(invalid="ignore", under="ignore"):
        want_y = np.where(x > 0.0, x, LEAKY_SLOPE * x)
        want_g = np.where(x > 0.0, 1.0, LEAKY_SLOPE) * g
        assert _bit_equal(leaky_relu(x), want_y)
        assert _bit_equal(leaky_relu_grad(x, g), want_g)
        # the special values meet each other too, input against gradient
        edge = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
        xe, ge = np.meshgrid(edge, edge, indexing="ij")
        assert _bit_equal(leaky_relu(edge), np.where(edge > 0.0, edge, LEAKY_SLOPE * edge))
        assert _bit_equal(leaky_relu_grad(xe, ge), np.where(xe > 0.0, 1.0, LEAKY_SLOPE) * ge)


def test_leaky_relu_gradient_away_from_kink(rng):
    x = rng.normal(size=(4, 4))
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the kink
    g_out = rng.normal(size=(4, 4))
    h = 1e-7
    fd = ((leaky_relu(x + h) - leaky_relu(x - h)) / (2 * h)) * g_out
    assert np.max(np.abs(leaky_relu_grad(x, g_out) - fd)) < 1e-6


@pytest.mark.parametrize("call, message", [
    (lambda: ConvLayer(kernel=np.zeros((1, 3, 3)), bias=np.zeros(1)),
     "kernel must be (out,in,k,k), got shape (1, 3, 3)"),
    (lambda: update_parameters(ParameterStore.create({"w": np.ones(2)}, learning_rate=0.1),
                               {"w": np.zeros(3)}),
     "gradient shape (3,) != parameter shape (2,) for 'w'"),
], ids=["conv_3d_kernel", "adam_gradient_shape"])
def test_malformed_layer_or_gradient_is_refused(call, message):
    with pytest.raises(ConfigError) as e:
        call()
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_is_fixed_point():
    p = np.array([1.5, -2.0])
    store = ParameterStore.create({"w": p}, learning_rate=0.1)
    before = store.params["w"].copy()
    for _ in range(3):
        update_parameters(store, {"w": np.zeros(2)})
    assert np.array_equal(store.params["w"], before)


def test_adam_first_step_magnitude():
    store = ParameterStore.create({"w": np.array([1.0])}, learning_rate=0.1)
    update_parameters(store, {"w": np.array([1.0])})
    # first Adam step moves by ~lr * sign(grad)
    assert store.params["w"][0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adam_deterministic_over_ten_steps(rng):
    grads = [rng.normal(size=(3, 3)) for _ in range(10)]
    outs = []
    for _ in range(2):
        store = ParameterStore.create({"w": np.ones((3, 3))}, learning_rate=0.01)
        for g in grads:
            update_parameters(store, {"w": g})
        outs.append(store.params["w"].copy())
    assert np.array_equal(outs[0], outs[1])


def test_adam_missing_gradient_names_error():
    store = ParameterStore.create({"a": np.ones(2), "b": np.ones(2)}, learning_rate=0.1)
    with pytest.raises(ConfigError, match="a.*b|b.*a"):
        update_parameters(store, {})


def test_refused_update_leaves_the_store_as_it_was():
    store = ParameterStore.create({"a": np.ones(2), "b": np.ones(2)}, learning_rate=0.1)
    update_parameters(store, {"a": np.array([0.5, -1.0]), "b": np.array([2.0, 0.25])})
    before = [{n: a.copy() for n, a in d.items()} for d in (store.params, store.m, store.v)]
    # "a" comes first, so a check made while stepping would move it before refusing "b"
    with pytest.raises(ConfigError, match=re.escape("gradient shape (3,) != parameter shape (2,) "
                                                    "for 'b'")):
        update_parameters(store, {"a": np.ones(2), "b": np.ones(3)})
    assert store.step == 1
    for saved, now in zip(before, (store.params, store.m, store.v)):
        assert saved.keys() == now.keys()
        for name in saved:
            assert saved[name].tobytes() == now[name].tobytes()


# ---------------------------------------------------------------------------
# layer validation and init

def test_conv_layer_validation():
    with pytest.raises(ConfigError):
        ConvLayer(kernel=np.ones((2, 2, 2, 2)), bias=np.ones(2))  # even kernel
    with pytest.raises(ConfigError):
        ConvLayer(kernel=np.ones((2, 2, 3, 3)), bias=np.ones(3))  # bias mismatch
    with pytest.raises(ConfigError):
        ConvLayer(kernel=np.ones((2, 2, 3, 3)), bias=np.ones(2), dilation=0)


def test_kaiming_seeded_reproducible():
    a = kaiming_conv(np.random.default_rng(7), 5, 16)
    b = kaiming_conv(np.random.default_rng(7), 5, 16)
    assert np.array_equal(a.kernel, b.kernel)
    assert np.array_equal(a.bias, b.bias)


# ---------------------------------------------------------------------------
# checkpoint file format

def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    params = {"s1.0.kernel": rng.normal(size=(4, 2, 3, 3)), "s1.0.bias": rng.normal(size=4)}
    store = ParameterStore.create(params, learning_rate=0.003)
    update_parameters(store, {k: rng.normal(size=v.shape) for k, v in params.items()})
    path = tmp_path / "ck.bin"
    save_checkpoint(path, store, meta={"arch": {"kind": "two_stage"}}, iteration=42)
    loaded, meta, iteration = load_checkpoint(path)
    assert iteration == 42
    assert meta["arch"]["kind"] == "two_stage"
    assert loaded.step == store.step
    assert loaded.learning_rate == store.learning_rate
    for name in params:
        assert np.array_equal(loaded.params[name], store.params[name])
        assert np.array_equal(loaded.m[name], store.m[name])
        assert np.array_equal(loaded.v[name], store.v[name])


def test_checkpoint_magic(tmp_path):
    path = tmp_path / "ck.bin"
    store = ParameterStore.create({"w": np.ones(3)}, 0.1)
    save_checkpoint(path, store)
    assert path.read_bytes()[:6] == MAGIC
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTMEI" + path.read_bytes()[6:])
    with pytest.raises(ConfigError):
        load_checkpoint(bad)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "ck.bin"
    store = ParameterStore.create({"w": np.ones(30)}, 0.1)
    save_checkpoint(path, store)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(ConfigError):
        load_checkpoint(trunc)


def test_checkpoint_crash_mid_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.ckpt"
    save_checkpoint(path, ParameterStore.create({"w": np.ones(30)}, 0.1), iteration=1)
    before = path.read_bytes()

    real_write = checkpoint._write_array
    written = []

    def crash_on_third(fh, name, arr):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(name)
        real_write(fh, name, arr)

    monkeypatch.setattr(checkpoint, "_write_array", crash_on_third)
    with pytest.raises(OSError):
        save_checkpoint(path, ParameterStore.create({"w": np.zeros(30)}, 0.1), iteration=2)
    assert path.read_bytes() == before
    store, _, iteration = load_checkpoint(path)
    assert iteration == 1 and np.array_equal(store.params["w"], np.ones(30))
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.ckpt"]


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ParameterStore.create({"w": np.ones(3)}, 0.1))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ConfigError,
                       match=re.escape(f"{bad}: trailing bytes after the last checkpoint record")):
        load_checkpoint(bad)


@pytest.mark.parametrize("case", sorted(CORRUPT_META))
def test_checkpoint_corrupt_meta_raises_config_error(tmp_path, case):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ParameterStore.create({"w": np.ones(3)}, 0.1))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(with_meta_block(path.read_bytes(), CORRUPT_META[case]))
    with pytest.raises(ConfigError, match="meta block"):
        load_checkpoint(bad)


def test_checkpoint_parameter_name_not_utf8_raises_config_error(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ParameterStore.create({"w": np.ones(3)}, 0.1))
    raw = path.read_bytes()
    # the first array record's name: u16 length 1, then the byte of "w"
    at = raw.index(struct.pack("<H", 1) + b"w") + 2
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(ConfigError, match="parameter name"):
        load_checkpoint(bad)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                       min_size=1, max_size=8))
def test_checkpoint_preserves_exact_doubles(tmp_path, values):
    arr = np.array(values)
    store = ParameterStore.create({"w": arr}, 0.1)
    path = tmp_path / "h.bin"
    save_checkpoint(path, store)
    loaded, _, _ = load_checkpoint(path)
    assert np.array_equal(loaded.params["w"], arr)
