"""Every function the benchmark's traced run wraps must exist.

`perfbench/spans.py` looks each name of its TRACED table up with getattr when
a `--trace 1` run starts, so renaming or deleting one breaks that run. The
benchmark's own smoke test takes minutes; this check takes none.
"""

import importlib
from pathlib import Path

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
    import numpy as np

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
