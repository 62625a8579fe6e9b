"""The benchmark's three workloads, driven through ``meirl.cli.main`` in process.

Each workload has a set-up (everything before the timed phase) and a
repetition (the timed CLI commands plus their output checks). The seed only
chooses the generated dataset; every program setting, the training and eval
seeds included, is fixed here, so the program sees nothing but the data.
Why each workload exists is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

LN4 = math.log(4.0)


@dataclass
class Op:
    """One CLI call: its wall time and whether it and its output checks passed."""

    label: str
    wall_s: float
    ok: bool = True
    problems: list = field(default_factory=list)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.ok = False
            self.problems.append(message)
        return condition


@dataclass
class Rep:
    """One timed repetition."""

    units: int
    wall_s: float
    figures: dict                 # named per-repetition timings, seconds
    outputs: list                 # (op, label, bytes) that must repeat exactly
    nll: float                    # the gated result number, nats per step
    quality: dict                 # named result numbers, printed


class CliRunner:
    """Runs CLI calls in this process and keeps every Op for failure counting.

    With a HostSpeed clock, an Op's wall time excludes the reference samples
    taken during the call."""

    def __init__(self, clock=None):
        self.ops: list[Op] = []
        self.clock = clock

    def cli(self, label: str, *argv) -> Op:
        from meirl import cli  # looked up per call, so a traced cli.main is seen

        buf = io.StringIO()
        args = [str(a) for a in argv]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(args)
        except Exception:  # the program under test must not stop the run
            rc = None
            buf.write(traceback.format_exc())
        t1 = time.perf_counter()
        op = Op(label, t1 - t0 - (self.clock.reference_s(t0, t1) if self.clock else 0.0))
        op.check(rc == 0, f"meirl {' '.join(args)} exited {rc}: {buf.getvalue()[-800:]}")
        self.ops.append(op)
        return op

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def problems(self) -> list:
        return [f"{op.label}: {p}" for op in self.ops for p in op.problems]


def _read_bytes(op: Op, path: Path) -> bytes:
    if not op.check(path.is_file(), f"missing output {path.name}"):
        return b""
    return path.read_bytes()


def _tree_bytes(op: Op, root: Path) -> bytes:
    """All files under root, in path order, as one byte string."""
    if not op.check(root.is_dir(), f"missing output directory {root.name}"):
        return b""
    parts = []
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "resolved_config.json":
            parts += [str(p.relative_to(root)).encode(), b"\0", p.read_bytes()]
    return b"".join(parts)


def _csv_rows(op: Op, text: bytes) -> list:
    try:
        return list(csv.DictReader(io.StringIO(text.decode())))
    except (UnicodeDecodeError, csv.Error) as e:
        op.check(False, f"unreadable CSV: {e}")
        return []


def _finite_column(op: Op, rows: list, column: str) -> list:
    values = []
    for row in rows:
        try:
            v = float(row[column])
        except (KeyError, TypeError, ValueError):
            op.check(False, f"column {column} missing or not a number")
            return values
        op.check(math.isfinite(v), f"{column} is not finite: {v}")
        values.append(v)
    return values


def _train_report(op: Op, out: Path, iterations: int):
    """report.csv bytes plus the mean training NLL; checks finiteness."""
    raw = _read_bytes(op, out / "report.csv")
    rows = _csv_rows(op, raw)
    op.check(len(rows) == iterations, f"report has {len(rows)} rows, expected {iterations}")
    nll = _finite_column(op, rows, "nll")
    _finite_column(op, rows, "grad_norm")
    return raw, (sum(nll) / len(nll) if nll else float("nan"))


def _generate(s: CliRunner, out: Path, demos: int, size: int, split: float, seed: int) -> Op:
    return s.cli("generate", "generate", "--out", out, "--demos", demos, "--rows", size,
                 "--cols", size, "--layouts", "straight,curve,tee", "--split", split,
                 "--seed", seed)


def _write_bc_config(path: Path, epochs: int) -> Path:
    # patience equal to the epoch budget: early stopping can only fire at the
    # last epoch, so the number of epochs run is fixed
    path.write_text(json.dumps({"patience": epochs}))
    return path


# ---------------------------------------------------------------------------


class TrainIrl:
    """`train` of ours and then irl_nokin on the README benchmark dataset."""

    name = "train_irl"
    unit = "training iteration"
    ITERATIONS = 6

    def setup(self, s: CliRunner, root: Path, seed: int) -> list:
        op = _generate(s, root / "data", 240, 16, 0.75, seed)
        return [(op, "dataset", _tree_bytes(op, root / "data"))]

    def repetition(self, s: CliRunner, root: Path, rep: Path) -> Rep:
        walls, outputs, quality = {}, [], {}
        for method in ("ours", "irl_nokin"):
            out = rep / method
            op = s.cli(f"train {method}", "train", "--dataset", root / "data", "--out", out,
                       "--method", method, "--iterations", self.ITERATIONS,
                       "--batch-size", 16, "--workers", 1, "--seed", 0)
            raw, mean_nll = _train_report(op, out, self.ITERATIONS)
            walls[method] = op.wall_s
            outputs.append((op, f"{method} report.csv", raw))
            quality[f"{method}_nll"] = mean_nll
        n = self.ITERATIONS
        return Rep(units=2 * n, wall_s=walls["ours"] + walls["irl_nokin"],
                   figures={"train_iter_s": walls["ours"] / n,
                            "nokin_iter_s": walls["irl_nokin"] / n},
                   outputs=outputs, nll=quality["ours_nll"],
                   quality={"train_nll": quality["ours_nll"],
                            "nokin_nll": quality["irl_nokin_nll"]})


class BcTrain32:
    """`train --method bc` on a 32x32 dataset of the same layouts."""

    name = "bc_train_32"
    unit = "BC epoch"
    DEMOS = 40
    EPOCHS = 2

    def setup(self, s: CliRunner, root: Path, seed: int) -> list:
        op = _generate(s, root / "data", self.DEMOS, 32, 1.0, seed)
        _write_bc_config(root / "bc.json", self.EPOCHS)
        return [(op, "dataset", _tree_bytes(op, root / "data"))]

    def repetition(self, s: CliRunner, root: Path, rep: Path) -> Rep:
        out = rep / "bc"
        op = s.cli("train bc", "train", "--dataset", root / "data", "--out", out,
                   "--method", "bc", "--iterations", self.EPOCHS,
                   "--config", root / "bc.json")
        raw = _read_bytes(op, out / "report.csv")
        rows = _csv_rows(op, raw)
        op.check(len(rows) == self.EPOCHS,
                 f"BC ran {len(rows)} epochs, expected {self.EPOCHS}")
        _finite_column(op, rows, "train_loss")
        val = _finite_column(op, rows, "val_loss")
        epochs = max(len(rows), 1)
        val_loss = val[-1] if val else float("nan")
        return Rep(units=epochs, wall_s=op.wall_s,
                   figures={"bc_epoch_s": op.wall_s / epochs},
                   outputs=[(op, "bc report.csv", raw)], nll=val_loss,
                   quality={"bc_val_loss": val_loss})


class EvalTable:
    """`eval` of all five methods on checkpoints from short real trainings."""

    name = "eval_table"
    unit = "test demo"
    DEMOS = 64
    SPLIT = 0.5
    TRAIN_ITERATIONS = 3
    BC_EPOCHS = 2

    def setup(self, s: CliRunner, root: Path, seed: int) -> list:
        data, ck = root / "data", root / "ck"
        outputs = []
        op = _generate(s, data, self.DEMOS, 16, self.SPLIT, seed)
        outputs.append((op, "dataset", _tree_bytes(op, data)))
        for method in ("ours", "irl_nokin"):
            op = s.cli(f"train {method}", "train", "--dataset", data, "--out", ck / method,
                       "--method", method, "--iterations", self.TRAIN_ITERATIONS,
                       "--batch-size", 8, "--workers", 1, "--seed", 0)
            outputs.append((op, f"{method} checkpoint",
                            _read_bytes(op, ck / method / "checkpoint.ckpt")))
        op = s.cli("train bc", "train", "--dataset", data, "--out", ck / "bc",
                   "--method", "bc", "--iterations", self.BC_EPOCHS,
                   "--config", _write_bc_config(root / "bc.json", self.BC_EPOCHS))
        outputs.append((op, "bc checkpoint", _read_bytes(op, ck / "bc" / "checkpoint.ckpt")))
        self.n_test = len(list((data / "test").glob("*.bin")))
        return outputs

    def repetition(self, s: CliRunner, root: Path, rep: Path) -> Rep:
        out, ck = rep / "eval", root / "ck"
        op = s.cli("eval", "eval", "--dataset", root / "data", "--out", out,
                   "--checkpoint", ck / "ours" / "checkpoint.ckpt",
                   "--checkpoint-nokin", ck / "irl_nokin" / "checkpoint.ckpt",
                   "--checkpoint-bc", ck / "bc" / "checkpoint.ckpt",
                   "--samples", 1000, "--seed", 0, "--workers", 1)
        raw = _read_bytes(op, out / "table.csv")
        rows = {r.get("method"): r for r in _csv_rows(op, raw)}
        op.check(set(rows) == {"ekf", "bc", "random", "irl_nokin", "ours"},
                 f"table rows {sorted(rows)} are not the five methods")
        for method, row in rows.items():
            op.check(row.get("n_infinite_nll") == "0",
                     f"{method} has {row.get('n_infinite_nll')} infinite NLLs")
            op.check(row.get("n_demos") == str(self.n_test),
                     f"{method} scored {row.get('n_demos')} demos, expected {self.n_test}")
        if "random" in rows:
            op.check(_as_float(rows["random"].get("nll")) == LN4,
                     f"random NLL {rows['random'].get('nll')} is not ln 4 to the bit")
        ours = rows.get("ours", {})
        nll, hd = _as_float(ours.get("nll")), _as_float(ours.get("hd"))
        op.check(math.isfinite(nll) and math.isfinite(hd), f"ours NLL {nll} / HD {hd} not finite")
        units = max(self.n_test, 1)
        return Rep(units=units, wall_s=op.wall_s,
                   figures={"eval_demo_s": op.wall_s / units},
                   outputs=[(op, "table.csv", raw)], nll=nll,
                   quality={"eval_nll_ours": nll, "eval_hd_ours": hd})


def _as_float(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return float("nan")


WORKLOADS = {w.name: w for w in (TrainIrl, BcTrain32, EvalTable)}
