"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``meirl`` package from outside: for
each listed function it replaces every binding in the loaded ``meirl.*``
modules that is that same function object, so call sites that imported the
name (``from .mdp import value_iteration`` in ``trainer``, ``cli`` and
``synthetic``, ``conv2d_forward`` inside ``reward_net``) are traced too. The
package itself is not modified; ``Tracer.installed()`` restores every binding
on exit.

Spans (name, start, end, parent) are kept in memory and written out at the
end. A span's self time is its duration minus the time its child spans took,
where a child's time includes the tracer's own bookkeeping for it, so that
bookkeeping never lands in the parent's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# counters computed at the layer boundary


@functools.lru_cache(maxsize=None)
def _probe(size: int) -> np.ndarray:
    return np.random.default_rng(size).standard_normal(size)


def _fingerprint(a) -> tuple:
    """Shape, sum and a fixed random projection: equal arrays give equal keys,
    and distinct real inputs practically never collide."""
    flat = np.asarray(a, dtype=np.float64).ravel()
    return np.shape(a), float(flat.sum()), float(flat @ _probe(flat.size))


def _conv_dims(x, layer):
    c, h, w = np.shape(x)
    o, _, k, _ = layer.kernel.shape
    return o, c, k, h, w


def _conv_forward_counts(tracer, args, kwargs, result):
    x, layer = args[0], args[1]
    o, c, k, h, w = _conv_dims(x, layer)
    tracer.add("nn.conv2d_forward", "flop", 2.0 * o * c * k * k * h * w)
    # compulsory operand traffic: read input, kernel and bias, write output
    tracer.add("nn.conv2d_forward", "bytes", 8.0 * (c * h * w + o * c * k * k + o + o * h * w))
    # a layer pass is needed once per distinct (weights, input) pair in a command
    tracer.seen_conv_inputs.add((_fingerprint(x), _fingerprint(layer.kernel),
                                 _fingerprint(layer.bias), layer.dilation))


def _conv_backward_counts(tracer, args, kwargs, result):
    x, layer = args[0], args[1]
    o, c, k, h, w = _conv_dims(x, layer)
    tracer.add("nn.conv2d_backward", "flop", 4.0 * o * c * k * k * h * w)
    # read input, kernel, grad_out; write grad_input, grad_kernel, grad_bias
    tracer.add("nn.conv2d_backward", "bytes",
               8.0 * (2 * c * h * w + 2 * o * c * k * k + o * h * w + o))


def _vi_counts(tracer, args, kwargs, result):
    tracer.add("mdp.value_iteration", "sweeps", result.sweeps)


def _dataset_bytes(root) -> int:
    root = Path(root)
    total = (root / "manifest.json").stat().st_size
    for split in ("train", "test"):
        with os.scandir(root / split) as entries:
            total += sum(e.stat().st_size for e in entries if e.name.endswith(".bin"))
    return total


def _save_dataset_counts(tracer, args, kwargs, result):
    tracer.add("dataset.save_dataset", "bytes", _dataset_bytes(args[0]))


def _load_dataset_counts(tracer, args, kwargs, result):
    tracer.add("dataset.load_dataset", "bytes", _dataset_bytes(args[0]))


def _checkpoint_counts(name):
    def count(tracer, args, kwargs, result):
        tracer.add(name, "bytes", os.path.getsize(args[0]))
    return count


def _end_of_command(tracer, args, kwargs, result):
    tracer.add("nn.conv2d_forward", "needed", len(tracer.seen_conv_inputs))
    tracer.seen_conv_inputs.clear()


# Functions wrapped in the traced run, each with an optional counter hook.
TRACED = {
    "cli.main": _end_of_command,
    "mdp.value_iteration": _vi_counts,
    "mdp.compute_svf": None,
    "mdp.sample_trajectories": None,
    "mdp.state_distribution": None,
    "nn.conv2d_forward": _conv_forward_counts,
    "nn.conv2d_backward": _conv_backward_counts,
    "nn.update_parameters": None,
    "reward_net.stage1_forward": None,
    "reward_net.reward_forward": None,
    "reward_net.reward_backward": None,
    "reward_net.reward_from_env": None,
    "reward_net.reward_backward_env": None,
    "reward_net.action_logits": None,
    "reward_net.action_head_backward": None,
    "metrics.mean_sampled_hd": None,
    "metrics.hausdorff": None,
    "metrics.nll": None,
    "metrics.terminal_entropy": None,
    "trainer.train_step": None,
    "trainer.demo_stack": None,
    "baselines.bc_policy": None,
    "baselines.ekf_forecast_cells": None,
    "kinematics.kinematic_context": None,
    "kinematics.build_input_stack": None,
    "synthetic.generate_demonstration": None,
    "dataset.save_dataset": _save_dataset_counts,
    "dataset.load_dataset": _load_dataset_counts,
    "checkpoint.save_checkpoint": _checkpoint_counts("checkpoint.save_checkpoint"),
    "checkpoint.load_checkpoint": _checkpoint_counts("checkpoint.load_checkpoint"),
}


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child_s = array("d")
        self._stack: list[int] = []
        self.counters: dict[tuple, float] = defaultdict(float)
        self.seen_conv_inputs: set = set()

    def add(self, layer: str, stat: str, value: float) -> None:
        self.counters[(layer, stat)] += value

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = time.perf_counter()
            idx = len(tracer.start)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.name_of.append(name_id)
            tracer.parent.append(parent)
            tracer.child_s.append(0.0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            try:
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                if parent >= 0:
                    tracer.child_s[parent] += time.perf_counter() - outer

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each TRACED function for the duration."""
        patched = []
        try:
            for qualname, hook in TRACED.items():
                module_name, fn_name = qualname.rsplit(".", 1)
                original = getattr(importlib.import_module(f"meirl.{module_name}"), fn_name)
                wrapper = self.wrap(qualname, original, hook)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "meirl" and not mod_name.startswith("meirl."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -----------------------------------------------------------------------
    # aggregation

    def per_name(self) -> dict:
        """name -> dict(calls, self_s, durations) over all recorded spans."""
        ids = np.frombuffer(self.name_of, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        child = np.frombuffer(self.child_s, dtype=np.float64)
        dur = end - start
        out = {}
        for name_id, name in enumerate(self.names):
            sel = ids == name_id
            out[name] = {"calls": int(sel.sum()),
                         "self_s": float((dur[sel] - child[sel]).sum()),
                         "durations": dur[sel]}
        return out

    def top_level_s(self) -> float:
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        top = parent == -1
        return float((end[top] - start[top]).sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
