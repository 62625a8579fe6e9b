"""Every function the benchmark's traced run wraps must exist.

`perfbench/spans.py` looks each name of its TRACED table up with getattr when
a `--trace 1` run starts, so renaming or deleting one breaks that run. The
benchmark's own smoke test takes minutes; this check takes none.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_is_a_callable():
    # compiled from its text, so no bytecode cache is written next to it
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    missing = []
    for qualname in spans["TRACED"]:
        module_name, fn_name = qualname.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"meirl.{module_name}"), fn_name, None)
        if not callable(fn):
            missing.append(qualname)
    assert spans["TRACED"] and not missing


def test_value_iteration_hook_counts_the_batch_sweep_total():
    # the traced run's value_iteration hook adds `result.sweeps` to a float
    # counter, so a batched result must carry one number: the batch total
    from meirl.mdp import value_iteration

    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    rewards = np.zeros((3, 8, 8))
    rewards[1, 2, 2] = 5.0
    rewards[2] = -1.0
    plans = value_iteration(rewards, gamma=0.9)
    tracer = spans["Tracer"]()
    spans["TRACED"]["mdp.value_iteration"](tracer, (rewards,), {"gamma": 0.9}, plans)
    total = tracer.counters[("mdp.value_iteration", "sweeps")]
    assert isinstance(total, float)
    assert total == float(sum(policy.sweeps for policy in plans)) > 0


@pytest.mark.parametrize("kind", ["two_stage", "env_only", "action_head"])
def test_conv_hooks_count_the_calls_the_net_makes(monkeypatch, kind):
    # the traced run's conv hooks read the input and the layer as the first two
    # positional arguments of each call the net makes; fed those real calls,
    # they must count 2 (forward) and 4 (backward) flops per multiply-add
    from meirl import reward_net
    from meirl.nn import ConvLayer
    from meirl.synthetic import generate_demonstrations, generate_world

    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    calls = {"nn.conv2d_forward": [], "nn.conv2d_backward": []}

    def captured(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name].append((args, kwargs, result))
            return result
        return wrapper

    for name in calls:
        fn_name = name.split(".")[1]
        monkeypatch.setattr(reward_net, fn_name, captured(name, getattr(reward_net, fn_name)))
    rows, cols = 12, 16
    world = generate_world(seed=2, rows=rows, cols=cols, layout="curve")
    demo = generate_demonstrations([dict(world=world, speed=3.0, seed=2)])[0]
    net = reward_net.build_net(kind, seed=0)
    out, acts = reward_net.forward(net, demo)
    reward_net.backward(net, acts, np.ones_like(out))

    layers = net.stage1 + net.stage2
    macs = sum(l.out_channels * l.in_channels * l.kernel.shape[2] ** 2 for l in layers) * rows * cols
    tracer = spans["Tracer"]()
    for name, records in calls.items():
        assert len(records) == len(layers)
        for args, kwargs, result in records:
            assert isinstance(args[1], ConvLayer) and np.shape(args[0])[1:] == (rows, cols)
            spans["TRACED"][name](tracer, args, kwargs, result)
    assert tracer.counters[("nn.conv2d_forward", "flop")] == 2.0 * macs
    assert tracer.counters[("nn.conv2d_backward", "flop")] == 4.0 * macs
    assert len(tracer.seen_conv_inputs) == len(layers)


def test_eval_filters_every_test_demo_in_one_ekf_call(tmp_path):
    # the traced run's baselines.ekf_forecast_cells.self_s is meant to be the
    # cost of eval's one batched EKF pass over all test demos
    from meirl.cli import main
    from meirl.dataset import load_dataset

    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--demos", "8", "--rows", "16", "--cols", "16",
                 "--seed", "1", "--split", "0.5"]) == 0
    assert len(load_dataset(data)[1]) > 1
    tracer = spans["Tracer"]()
    with tracer.installed():
        assert main(["eval", "--dataset", str(data), "--out", str(tmp_path / "ev"),
                     "--methods", "ekf,random", "--samples", "5"]) == 0
    ekf = tracer.names.index("baselines.ekf_forecast_cells")
    assert list(tracer.name_of).count(ekf) == 1
