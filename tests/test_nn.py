"""Conv substrate: naive-loop oracle, finite differences, Adam, checkpoints."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meirl import checkpoint
from meirl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from meirl.errors import ConfigError
from meirl.nn import (ConvLayer, ParameterStore, conv2d_backward, conv2d_forward,
                      kaiming_conv, leaky_relu, leaky_relu_grad, update_parameters)


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
# activation

def test_leaky_relu_values():
    x = np.array([2.0, -1.0, 0.0])
    assert np.allclose(leaky_relu(x), [2.0, -0.01, 0.0])


def test_leaky_relu_gradient_away_from_kink(rng):
    x = rng.normal(size=(4, 4))
    x[np.abs(x) < 0.1] = 0.5  # keep clear of the kink
    g_out = rng.normal(size=(4, 4))
    h = 1e-7
    fd = ((leaky_relu(x + h) - leaky_relu(x - h)) / (2 * h)) * g_out
    assert np.max(np.abs(leaky_relu_grad(x, g_out) - fd)) < 1e-6


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


def test_duplicate_parameter_name_rejected():
    with pytest.raises(ConfigError):
        ParameterStore.create([("a", np.ones(1)), ("a", np.ones(2))], 0.1)


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
