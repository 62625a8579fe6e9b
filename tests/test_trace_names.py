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
