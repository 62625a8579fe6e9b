"""Minimal dense-conv substrate: float64 (C, H, W) arrays, hand-derived adjoints, Adam.

No autograd graph here; the network topology is fixed and small, so every
backward pass is written out explicitly and checked against finite differences
in the test suite.

Convolution is a shifted-window GEMM. Each row of the input is given p junk
columns on its right, wp = w + p, and the rows are set p + 1 rows down in a
zero buffer of h + 2p + 2 rows, flattened to (c, (h+2p+2)*wp) with the data at
column 0. Output pixel (i, j) then sits at flat index i*wp + j, and tap
(u, v) reads the contiguous window of h*wp entries that starts at
(u*d + 1)*wp + v*d - p, so each tap is one BLAS call on a view, with no patch
copy. A tap that runs off a row's right edge reads that row's junk zeros, and
one that runs off its left edge reads the previous row's, so p junk columns
serve both sides; the spare rows above and below keep the first and last
taps' windows inside the buffer. The p junk columns of each output row are
cropped. A kernel slice of one column (one input channel in the forward, one
output channel in the input gradient) is a one-term product, so it is taken
as a broadcast multiply, which rounds each entry as the one-term GEMM does.

The input gradient runs the same loop. A stride-1 transposed convolution is
the correlation with the flipped kernel (Dumoulin & Visin 2016), so the
gradient is padded and flattened as the input is, and tap (u, v) multiplies
its window by K[:, :, k-1-u, k-1-v].T into one contiguous accumulator. The
taps run in reverse order, so each input cell sums its kernel taps in u, v
order, as the scatter-add adjoint in the tests does, and it has that
adjoint's bits. The kernel gradient reads the unpadded gradient as a window
of that same buffer, whose zero padding fills the junk columns, against the
input written once, channels last, into a zero buffer of the same layout.
Kernel taps go to BLAS as strided views, as tensordot passes them. Forward
and grad_input equal the tensordot reference in the tests bitwise at the
sizes it is run at (8x13, 13x8 and 32x32); at other sizes, 9x9 for one,
BLAS blocks the sums otherwise and the two differ in their last ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

LEAKY_SLOPE = 0.01
# Adam's decay rates of the first and second moments, and its denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ConvLayer:
    """Square dilated convolution with per-output-channel bias and zero same-padding.

    kernel: (out_ch, in_ch, k, k), bias: (out_ch,). Stride is always 1 and the
    spatial dims of the output equal the input for any dilation.
    """

    kernel: np.ndarray
    bias: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        self.kernel = np.ascontiguousarray(np.asarray(self.kernel, dtype=np.float64))
        self.bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if self.kernel.ndim != 4:
            raise ConfigError(f"kernel must be (out,in,k,k), got shape {self.kernel.shape}")
        out_ch, _, kh, kw = self.kernel.shape
        if kh != kw or kh % 2 != 1:
            raise ConfigError(f"kernel must be square with odd size, got {kh}x{kw}")
        if self.bias.shape != (out_ch,):
            raise ConfigError(f"bias shape {self.bias.shape} does not match {out_ch} output channels")
        if int(self.dilation) < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")
        self.dilation = int(self.dilation)

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def padding(self) -> int:
        k = self.kernel.shape[2]
        return self.dilation * (k - 1) // 2


def _check_input(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ConfigError(f"input must be (channels, rows, cols), got shape {x.shape}")
    if x.shape[0] != layer.in_channels:
        raise ConfigError(
            f"input has {x.shape[0]} channels, layer expects {layer.in_channels}"
        )
    return x


def _flat_windows(x: np.ndarray, layer: ConvLayer):
    """The flat padded input (c, (h+2p+2)*wp), wp = w + p, and (u, v, window
    start) per tap in u, v order. Row i of x sits at column 0 of buffer row
    p + 1 + i; every other entry is zero."""
    c, h, w = x.shape
    k, d, p = layer.kernel.shape[2], layer.dilation, layer.padding
    wp = w + p
    xf = np.zeros((c, h + 2 * p + 2, wp))
    xf[:, p + 1 : p + 1 + h, :w] = x
    taps = [(u, v, (u * d + 1) * wp + v * d - p) for u in range(k) for v in range(k)]
    return xf.reshape(c, -1), wp, taps


def _correlate(acc: np.ndarray, flat: np.ndarray, kernel: np.ndarray, taps) -> np.ndarray:
    """acc += kernel[:, :, u, v] @ (the window of flat that starts at s), tap by
    tap in the order given; acc is (rows, h*wp) and flat a `_flat_windows` buffer.

    A one-column kernel slice is broadcast against its one-row window. Each
    entry is then one product, rounded as the one-term GEMM rounds it; only a
    zero product's sign can differ (GEMM's is +0), which changes no sum unless
    acc holds -0."""
    n = acc.shape[1]
    product = np.multiply if kernel.shape[1] == 1 else np.matmul
    for u, v, s in taps:
        acc += product(kernel[:, :, u, v], flat[:, s : s + n])
    return acc


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Dilated cross-correlation: bias + sum over taps of K[:, :, u, v] @ window,
    then the junk columns cropped."""
    x = _check_input(x, layer)
    h, w = x.shape[1], x.shape[2]
    xf, wp, taps = _flat_windows(x, layer)
    out = np.empty((layer.out_channels, h * wp))
    out[:] = layer.bias[:, None]
    return _correlate(out, xf, layer.kernel, taps).reshape(-1, h, wp)[:, :, :w]


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray,
                    grad_channels: int | None = None):
    """Exact adjoints of conv2d_forward.

    Returns (grad_input, grad_kernel, grad_bias). Derived directly from
    out[o,i,j] = b[o] + sum_{c,u,v} K[o,c,u,v] * xpad[c, i+u*d, j+v*d].

    The gradient is padded and flattened as the forward pads its input, into
    gf. A stride-1 transposed convolution is the correlation with the kernel
    flipped, since p - u*d = (k-1-u)*d - p: grad_input is the forward's loop
    over gf's tap windows with K[:, :, k-1-u, k-1-v].T at tap (u, v), then
    cropped. The taps run in reverse u, v order, so each input cell adds its
    kernel taps in u, v order, as the scatter into the padded input does, and
    rounds as it does. The heads' one output channel makes the flipped slice
    one column, which `_correlate` takes as a broadcast.

    grad_kernel[:, :, u, v] = gp @ window. gp is gf's window at (p + 1)*wp: it
    holds grad_out at i*wp + j and, in its junk columns, gf's zero padding.
    The windows are read from xt, the input written channels last,
    x.transpose(1, 2, 0), straight into a zero ((h+2p+2)*wp, c) buffer laid out
    as `_flat_windows` lays out rows, so each window is a contiguous block of
    rows.

    grad_channels is how many leading input channels the caller reads the
    gradient of (None: all of them). Only those rows of the flipped kernel's
    products are formed, which gives them the same bits as the full product;
    at 0 no input gradient is formed and grad_input is None. A one-row product
    would run as a matrix-vector call, which rounds otherwise, so at least two
    rows are formed where the input has them.
    """
    x = _check_input(x, layer)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    c, h, w = x.shape
    o, p = layer.out_channels, layer.padding
    if grad_out.shape != (o, h, w):
        raise ConfigError(f"grad_out shape {grad_out.shape} does not match output ({o}, {h}, {w})")
    kept = c if grad_channels is None else int(grad_channels)
    if not 0 <= kept <= c:
        raise ConfigError(f"grad_channels must be in 0..{c}, got {grad_channels}")
    gf, wp, taps = _flat_windows(grad_out, layer)
    n = h * wp
    xt = np.zeros((h + 2 * p + 2, wp, c))
    xt[p + 1 : p + 1 + h, :w] = x.transpose(1, 2, 0)
    xt = xt.reshape(-1, c)
    gp = gf[:, (p + 1) * wp : (p + 1) * wp + n]
    grad_taps = np.empty(layer.kernel.shape[2:] + (o, c))
    for u, v, s in taps:
        np.matmul(gp, xt[s : s + n], out=grad_taps[u, v])
    grad_input = None
    if kept:
        formed = min(c, max(kept, 2))
        flipped = layer.kernel[:, :formed, ::-1, ::-1].transpose(1, 0, 2, 3)
        grad_xf = _correlate(np.zeros((formed, n)), gf, flipped, taps[::-1])
        grad_input = grad_xf.reshape(formed, h, wp)[:kept, :, :w]
    return grad_input, grad_taps.transpose(2, 3, 0, 1).copy(), grad_out.sum(axis=(1, 2))


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """x where x > 0, else LEAKY_SLOPE * x. As max(x, LEAKY_SLOPE * x) it has no
    data-dependent branch and the bits of the select: for x < 0 the scaled
    value is the larger, and +-0, NaN, +-inf and subnormals come out as
    LEAKY_SLOPE * x does."""
    return np.maximum(x, LEAKY_SLOPE * x)


def leaky_relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out scaled by 1 where x > 0, else by LEAKY_SLOPE, formed without a
    data-dependent branch as mask * (1 - LEAKY_SLOPE) + LEAKY_SLOPE. Both
    factors are exact, since (1 - LEAKY_SLOPE) + LEAKY_SLOPE == 1.0 in float64,
    so each product rounds as that of a select of the two factors would,
    NaN and +-0 included. grad_out must have the shape of x."""
    scale = (x > 0.0).astype(np.float64)
    scale *= 1.0 - LEAKY_SLOPE
    scale += LEAKY_SLOPE
    scale *= grad_out
    return scale


def kaiming_conv(rng: np.random.Generator, in_ch: int, out_ch: int, k: int = 3,
                 dilation: int = 1) -> ConvLayer:
    """Fan-in scaled normal init, zero bias."""
    std = math.sqrt(2.0 / (in_ch * k * k))
    kernel = rng.normal(0.0, std, size=(out_ch, in_ch, k, k))
    return ConvLayer(kernel=kernel, bias=np.zeros(out_ch), dilation=dilation)


@dataclass
class ParameterStore:
    """Named float64 parameters plus Adam moment state.

    Parameter arrays are shared by reference with the owning network, so
    update_parameters mutates them in place.
    """

    params: dict
    learning_rate: float
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def create(cls, params: dict, learning_rate: float) -> "ParameterStore":
        named = {name: np.asarray(arr, dtype=np.float64) for name, arr in params.items()}
        store = cls(params=named, learning_rate=float(learning_rate))
        store.m = {n: np.zeros_like(p) for n, p in named.items()}
        store.v = {n: np.zeros_like(p) for n, p in named.items()}
        return store


def update_parameters(store: ParameterStore, grads: dict) -> None:
    """One Adam step, in place, in fixed (insertion) parameter order. Every
    gradient is checked before any state moves, so a refused update leaves
    the store as it was."""
    missing = [n for n in store.params if n not in grads]
    if missing:
        raise ConfigError("missing gradients for: " + ", ".join(sorted(missing)))
    grads = {name: np.asarray(grads[name], dtype=np.float64) for name in store.params}
    for name, p in store.params.items():
        if grads[name].shape != p.shape:
            raise ConfigError(f"gradient shape {grads[name].shape} != parameter shape "
                              f"{p.shape} for {name!r}")
    store.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** store.step
    bc2 = 1.0 - ADAM_BETA2 ** store.step
    for name, p in store.params.items():
        g = grads[name]
        m, v = store.m[name], store.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= store.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
