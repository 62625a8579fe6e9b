"""Minimal dense-conv substrate: float64 (C, H, W) arrays, hand-derived adjoints, Adam.

No autograd graph here; the network topology is fixed and small, so every
backward pass is written out explicitly and checked against finite differences
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

LEAKY_SLOPE = 0.01


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


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Dilated cross-correlation, accumulated over the k*k taps via shifted slices."""
    x = _check_input(x, layer)
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


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray):
    """Exact adjoints of conv2d_forward.

    Returns (grad_input, grad_kernel, grad_bias). Derived directly from
    out[o,i,j] = b[o] + sum_{c,u,v} K[o,c,u,v] * xpad[c, i+u*d, j+v*d].
    """
    x = _check_input(x, layer)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    h, w = x.shape[1], x.shape[2]
    if grad_out.shape != (layer.out_channels, h, w):
        raise ConfigError(
            f"grad_out shape {grad_out.shape} does not match output ({layer.out_channels}, {h}, {w})"
        )
    k = layer.kernel.shape[2]
    d, p = layer.dilation, layer.padding
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
    grad_input = grad_xp[:, p : p + h, p : p + w] if p else grad_xp
    return grad_input, grad_kernel, grad_bias


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def create(cls, params, learning_rate: float) -> "ParameterStore":
        items = params.items() if hasattr(params, "items") else params
        named = {}
        for name, arr in items:
            if name in named:
                raise ConfigError(f"duplicate parameter name {name!r}")
            named[name] = np.asarray(arr, dtype=np.float64)
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
    bc1 = 1.0 - store.beta1 ** store.step
    bc2 = 1.0 - store.beta2 ** store.step
    for name, p in store.params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m, v = store.m[name], store.v[name]
        m *= store.beta1
        m += (1.0 - store.beta1) * g
        v *= store.beta2
        v += (1.0 - store.beta2) * (g * g)
        p -= store.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + store.eps)
