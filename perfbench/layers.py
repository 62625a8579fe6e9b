"""Per-layer metrics of the traced run, computed from the tracer's spans.

Every metric except the set-up ones and the two ``train_step`` percentiles is
normalised per unit of work of the workload's timed phase (a training
iteration, a BC epoch, or a test demo through one ``eval``), so a number does
not depend on how many repetitions fit in the run. The set-up metrics are per
set-up. Which end-to-end metric each layer should move, and on which workload,
is in README.md. Units ending in "-calc" mark numbers computed from array
shapes, not measured.
"""

from __future__ import annotations

import numpy as np

SETUP_LAYERS = ("synthetic.generate_demonstration", "dataset.save_dataset")


def _ratio(num: float, den: float) -> float:
    # a layer with no calls on a workload reports 0 for its derived rates
    return num / den if den else 0.0


def per_layer_metrics(spec: list, timed, setup, units: float, n_setups: int,
                      timed_wall_s: float, overhead_s: float) -> dict:
    """name -> {"value", "unit"} for every per-layer metric of BENCHMARK.json.

    spec: the ``per_layer`` list of BENCHMARK.json. Metric names have the form
    ``<module>.<function>.<stat>``; the stat picks the rule below.
    timed / setup: the Tracer of the traced timed repetitions and of the
    traced set-ups. units: units of work done in the traced repetitions.
    timed_wall_s: wall time of those repetitions, benchmark checks included.
    overhead_s: traced minus untraced wall time per unit of work.
    """
    spans = {"timed": timed.per_name(), "setup": setup.per_name()}
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0)}

    def stat(layer: str, stat_name: str) -> float:
        setup_phase = layer in SETUP_LAYERS
        tracer = setup if setup_phase else timed
        per = n_setups if setup_phase else units
        rec = spans["setup" if setup_phase else "timed"].get(layer, empty)
        if stat_name == "calls":
            return rec["calls"] / per
        if stat_name == "self_s":
            return rec["self_s"] / per
        if stat_name == "sweeps_per_call":
            return _ratio(tracer.counters[(layer, "sweeps")], rec["calls"])
        if stat_name == "gflop":
            return tracer.counters[(layer, "flop")] / 1e9 / per
        if stat_name == "gflop_per_s":
            return _ratio(tracer.counters[(layer, "flop")] / 1e9, rec["self_s"])
        if stat_name == "gbyte":
            return tracer.counters[(layer, "bytes")] / 1e9 / per
        if stat_name == "bytes":
            return tracer.counters[(layer, "bytes")] / per
        if stat_name in ("p50_s", "p90_s"):
            d = rec["durations"]
            return float(np.percentile(d, 50 if stat_name == "p50_s" else 90)) if len(d) else 0.0
        raise KeyError(f"no rule for {layer}.{stat_name}")

    out = {}
    for metric in spec:
        name = metric["name"]
        if name == "reward_net.conv_fwd_useful_ratio":
            fwd = spans["timed"].get("nn.conv2d_forward", empty)["calls"]
            value = _ratio(timed.counters[("nn.conv2d_forward", "needed")], fwd)
        elif name == "trace.uncovered_s":
            value = (timed_wall_s - timed.top_level_s()) / units
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            layer, stat_name = name.rsplit(".", 1)
            value = stat(layer, stat_name)
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out
