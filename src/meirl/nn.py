"""Minimal dense-conv substrate: float64 (C, H, W) arrays, hand-derived adjoints, Adam.

No autograd graph here; the network topology is fixed and small, so every
backward pass is written out explicitly and checked against finite differences
in the test suite.

Convolution is a shifted-window GEMM. The input is zero-padded by p on every
side, given one spare bottom row, and flattened to (c, (h+2p+1)*wp), wp = w+2p.
Output pixel (i, j) then sits at flat index i*wp + j, and tap (u, v) reads the
contiguous window of h*wp entries that starts at u*d*wp + v*d, so each tap is
one BLAS call on a view, with no patch copy. The spare row keeps the last
tap's window inside the buffer. Each output row carries wp - w junk columns:
the forward pass crops them, and the backward pass feeds them zero gradient.
Kernel taps go to BLAS as strided views, as tensordot passes them, so that
forward and grad_input round exactly as the tensordot reference in the tests.
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
    """The flat padded input (c, (h+2p+1)*wp), wp, and (u, v, window start) per
    tap in u, v order."""
    c, h, w = x.shape
    k, d, p = layer.kernel.shape[2], layer.dilation, layer.padding
    wp = w + 2 * p
    xf = np.zeros((c, h + 2 * p + 1, wp))
    xf[:, p : p + h, p : p + w] = x
    taps = [(u, v, u * d * wp + v * d) for u in range(k) for v in range(k)]
    return xf.reshape(c, -1), wp, taps


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Dilated cross-correlation: bias + sum over taps of K[:, :, u, v] @ window,
    then the junk columns cropped."""
    x = _check_input(x, layer)
    h, w = x.shape[1], x.shape[2]
    xf, wp, taps = _flat_windows(x, layer)
    n = h * wp
    out = np.empty((layer.out_channels, n))
    out[:] = layer.bias[:, None]
    for u, v, s in taps:
        out += layer.kernel[:, :, u, v] @ xf[:, s : s + n]
    return out.reshape(-1, h, wp)[:, :, :w]


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray):
    """Exact adjoints of conv2d_forward.

    Returns (grad_input, grad_kernel, grad_bias). Derived directly from
    out[o,i,j] = b[o] + sum_{c,u,v} K[o,c,u,v] * xpad[c, i+u*d, j+v*d].
    With gp the gradient padded by zero junk columns to width wp, grad_input
    is the cropped sum of K[:, :, u, v].T @ gp scattered into each tap's
    window, and grad_kernel[:, :, u, v] = gp @ window, each window read from
    one channels-last copy of the flat padded input.
    """
    x = _check_input(x, layer)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    c, h, w = x.shape
    o, p = layer.out_channels, layer.padding
    if grad_out.shape != (o, h, w):
        raise ConfigError(f"grad_out shape {grad_out.shape} does not match output ({o}, {h}, {w})")
    xf, wp, taps = _flat_windows(x, layer)
    n = h * wp
    xt = np.ascontiguousarray(xf.T)
    gp = np.zeros((o, n))
    gp.reshape(o, h, wp)[:, :, :w] = grad_out
    grad_taps = np.empty(layer.kernel.shape[2:] + (o, c))
    grad_xf = np.zeros_like(xf)
    for u, v, s in taps:
        np.matmul(gp, xt[s : s + n], out=grad_taps[u, v])
        grad_xf[:, s : s + n] += layer.kernel[:, :, u, v].T @ gp
    grad_input = grad_xf.reshape(c, -1, wp)[:, p : p + h, p : p + w]
    return grad_input, grad_taps.transpose(2, 3, 0, 1).copy(), grad_out.sum(axis=(1, 2))


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, LEAKY_SLOPE * x)


def leaky_relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, 1.0, LEAKY_SLOPE) * grad_out


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
    """One Adam step, in place, in fixed (insertion) parameter order."""
    missing = [n for n in store.params if n not in grads]
    if missing:
        raise ConfigError("missing gradients for: " + ", ".join(sorted(missing)))
    store.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** store.step
    bc2 = 1.0 - ADAM_BETA2 ** store.step
    for name, p in store.params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m, v = store.m[name], store.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= store.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
