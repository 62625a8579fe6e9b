"""Two-stage dilated-conv reward network and its exact backward pass.

Stage 1 maps the five terrain channels to 25 feature maps through four 3x3
layers with dilations 1..4 (leaky ReLU after the first three, linear output),
for a 21x21 receptive field. Stage 2 maps the 30-channel input stack (features
plus positional and kinematic channels) through three 3x3 layers down to the
scalar reward map. Variants reuse the same machinery: an env-only net that
drops stage 2 and ends in a 1-channel head, and an action head with 4 output
channels for direct policy cloning.
Every variant is run by one pair: `forward` on a scene, keeping each
layer's activations, and `backward`, which reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint
from .errors import ConfigError
from .kinematics import N_FEATURE_CHANNELS, N_STACK_CHANNELS, build_input_stack, kinematic_context
from .mdp import ENV_CHANNEL_NAMES
from .nn import conv2d_backward, conv2d_forward, kaiming_conv, leaky_relu, leaky_relu_grad

STAGE1_WIDTHS = (16, 24, 24, N_FEATURE_CHANNELS)
STAGE1_DILATIONS = (1, 2, 3, 4)
STAGE2_WIDTHS = (16, 8)
ENV_CHANNELS = len(ENV_CHANNEL_NAMES)

KINDS = ("two_stage", "env_only", "action_head")


@dataclass
class RewardNet:
    kind: str
    stage1: list = field(default_factory=list)  # [ConvLayer]
    stage2: list = field(default_factory=list)

    def parameters(self) -> dict:
        out = {}
        for i, layer in enumerate(self.stage1):
            out[f"s1.{i}.kernel"] = layer.kernel
            out[f"s1.{i}.bias"] = layer.bias
        for i, layer in enumerate(self.stage2):
            out[f"s2.{i}.kernel"] = layer.kernel
            out[f"s2.{i}.bias"] = layer.bias
        return out

    def arch_meta(self) -> dict:
        return {
            "kind": self.kind,
            "stage1": [[l.out_channels, l.in_channels, l.kernel.shape[2], l.dilation]
                       for l in self.stage1],
            "stage2": [[l.out_channels, l.in_channels, l.kernel.shape[2], l.dilation]
                       for l in self.stage2],
        }


def build_net(kind: str = "two_stage", seed: int = 0) -> RewardNet:
    """Seeded Kaiming init of one of the three architecture variants."""
    if kind not in KINDS:
        raise ConfigError(f"unknown net kind {kind!r}, expected one of {KINDS}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    net = RewardNet(kind=kind)
    if kind == "env_only":
        widths = STAGE1_WIDTHS[:-1] + (1,)
    else:
        widths = STAGE1_WIDTHS
    in_ch = ENV_CHANNELS
    for width, dil in zip(widths, STAGE1_DILATIONS):
        net.stage1.append(kaiming_conv(rng, in_ch, width, k=3, dilation=dil))
        in_ch = width
    if kind != "env_only":
        head = 4 if kind == "action_head" else 1
        in_ch = N_STACK_CHANNELS
        for width in STAGE2_WIDTHS + (head,):
            net.stage2.append(kaiming_conv(rng, in_ch, width, k=3, dilation=1))
            in_ch = width
        if kind == "action_head":
            # small-weight head so the initial policy is near uniform and the
            # cloning loss starts at about ln 4
            net.stage2[-1].kernel *= 0.1
    return net


def load_net(path, kind: str) -> tuple:
    """(net, store, iteration) of the checkpoint at `path`, whose net must be
    of the `kind` the caller expects: that kind's architecture, equal to the
    stored record, holding exactly the net's parameter names at the net's
    shapes, and every parameter and Adam moment finite. Each refusal is a ConfigError
    naming the path."""
    store, meta, iteration = load_checkpoint(path)
    arch = meta.get("arch")
    stored = arch.get("kind") if isinstance(arch, dict) else None
    if stored not in KINDS:
        raise ConfigError(f"{path}: checkpoint carries no usable architecture record")
    if stored != kind:
        raise ConfigError(f"{path}: checkpoint holds a {stored!r} net but the run asks for {kind!r}")
    net = build_net(kind)
    if arch != net.arch_meta():
        raise ConfigError(f"{path}: checkpoint architecture {arch} is not that of a {kind!r} net")
    params = net.parameters()
    missing = [name for name in params if name not in store.params]
    if missing:
        raise ConfigError(f"{path}: checkpoint missing {', '.join(missing)}")
    unknown = [name for name in store.params if name not in params]
    if unknown:
        raise ConfigError(f"{path}: checkpoint holds parameters a {kind!r} net does not have: "
                          f"{', '.join(unknown)}")
    for name, arr in params.items():
        if store.params[name].shape != arr.shape:
            raise ConfigError(f"{path}: checkpoint shape mismatch for {name}: got "
                              f"{store.params[name].shape}, the net has {arr.shape}")
        arr[...] = store.params[name]
    store.params = params  # the store steps the net's own arrays, now holding the stored values
    for what, arrays in (("", params), ("Adam m of ", store.m), ("Adam v of ", store.v)):
        bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
        if bad:
            raise ConfigError(f"{path}: checkpoint holds non-finite {what}{', '.join(bad)}")
    return net, store, iteration


# ---------------------------------------------------------------------------
# forward / backward

def _stack_forward(layers, h):
    """Every layer but the last is followed by a leaky ReLU; each cache holds
    the layer's input only."""
    caches = []
    for i, layer in enumerate(layers):
        caches.append(h)
        h = conv2d_forward(h, layer)
        if i < len(layers) - 1:
            h = leaky_relu(h)
    return h, caches


def _stack_backward(layers, caches, g, prefix, input_channels):
    """(gradient w.r.t. the first `input_channels` channels of the stack's
    input, or None at 0; parameter gradients)."""
    grads = {}
    for i in reversed(range(len(layers))):
        if i < len(layers) - 1:
            # the leaky ReLU keeps the sign, so the next layer's input is
            # positive exactly where this layer's pre-activation was
            g = leaky_relu_grad(caches[i + 1], g)
        g, gk, gb = conv2d_backward(caches[i], layers[i], g, input_channels if i == 0 else None)
        grads[f"{prefix}.{i}.kernel"] = gk
        grads[f"{prefix}.{i}.bias"] = gb
    return g, grads


def _require(net: RewardNet, kind: str, step: str) -> None:
    if net.kind != kind:
        raise ConfigError(f"{step} needs a {kind} net, got {net.kind!r}")


@dataclass
class Activations:
    """Per layer, its input; so stage2[0] is the (30, rows, cols) stack."""

    stage1: list
    stage2: list | None = None  # None when the kind has no second stage


def forward(net: RewardNet, scene) -> tuple:
    """(output, activations) of the net on one `synthetic.Scene` or demo (its
    `world`, `past` and `start`); the one place that decides which stages a
    kind runs. env_only runs stage 1, whose 1-channel head is the reward map.
    two_stage and action_head run stage 1, stack its features with the scene's
    positional and kinematic channels, and run stage 2 for the reward map or logits."""
    env = scene.world.env
    if net.kind == "env_only":
        reward, s1 = reward_from_env(net, env)
        return reward, Activations(stage1=s1)
    feats, s1 = stage1_forward(net, env)
    stack = build_input_stack(feats, scene.world, scene.start, kinematic_context(scene.past))
    head = reward_forward if net.kind == "two_stage" else action_logits
    out, s2 = head(net, stack)
    return out, Activations(stage1=s1, stage2=s2)


def backward(net: RewardNet, acts: Activations, grad_out: np.ndarray) -> dict:
    """Parameter gradients for d(loss)/d(forward output) = grad_out, from the
    activations forward kept; no forward pass is re-run. Walks stage 2 if there
    is one, forming the gradient of the learned feature channels only (the
    positional and kinematic ones hold no parameters), then walks stage 1,
    whose terrain input needs no gradient. A grad_out that does not fit the
    output raises ConfigError."""
    g = np.asarray(grad_out, dtype=np.float64)
    g = g.reshape((-1,) + g.shape[-2:])  # a reward map is one output channel
    s2_grads = {}
    if acts.stage2 is not None:
        stage2_backward = reward_backward if net.kind == "two_stage" else action_head_backward
        g, s2_grads = stage2_backward(net, acts.stage2, g)
    if net.kind == "env_only":
        _, grads = reward_backward_env(net, acts.stage1, g)
    else:
        _, grads = _stack_backward(net.stage1, acts.stage1, g, "s1", 0)
    grads.update(s2_grads)
    return grads


# Per-kind steps of forward and backward. Each returns its stage's output (or
# input gradient) with that stage's layer caches (or parameter gradients).

def stage1_forward(net: RewardNet, env: np.ndarray) -> tuple:
    """Stage-1 feature maps of the terrain channels; the first conv checks
    their shape."""
    return _stack_forward(net.stage1, env)


def reward_forward(net: RewardNet, stack: np.ndarray) -> tuple:
    """Stage-2 reward map from an already-built input stack."""
    _require(net, "two_stage", "reward_forward")
    out, caches = _stack_forward(net.stage2, stack)
    return out[0], caches


def reward_backward(net: RewardNet, caches: list, grad: np.ndarray) -> tuple:
    """Walks the two_stage net's stage 2: (gradient w.r.t. the stack's
    feature channels, grads)."""
    _require(net, "two_stage", "reward_backward")
    return _stack_backward(net.stage2, caches, grad, "s2", N_FEATURE_CHANNELS)


def reward_from_env(net: RewardNet, env: np.ndarray) -> tuple:
    """Env-only variant: the stage-1 head is the reward map."""
    _require(net, "env_only", "reward_from_env")
    out, caches = _stack_forward(net.stage1, env)
    return out[0], caches


def reward_backward_env(net: RewardNet, caches: list, grad: np.ndarray) -> tuple:
    """Walks the env_only net's stage 1: (None, grads); the env needs no gradient."""
    _require(net, "env_only", "reward_backward_env")
    return _stack_backward(net.stage1, caches, grad, "s1", 0)


def action_logits(net: RewardNet, stack: np.ndarray) -> tuple:
    """(4, rows, cols) logits of the cloning head."""
    _require(net, "action_head", "action_logits")
    return _stack_forward(net.stage2, stack)


def action_head_backward(net: RewardNet, caches: list, grad: np.ndarray) -> tuple:
    """Walks the action head's stage 2: (gradient w.r.t. the stack's feature
    channels, grads)."""
    _require(net, "action_head", "action_head_backward")
    return _stack_backward(net.stage2, caches, grad, "s2", N_FEATURE_CHANNELS)
