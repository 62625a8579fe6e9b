"""meirl benchmark: one workload per run, driven through the public CLI.

    python3 perfbench/run.py --workload train_irl --seed 1 --seconds 20 --trace 0

Run from the root of a meirl checkout; the program is imported from its
``src/`` directory. The run generates its inputs from ``--seed``, sets up
(several times, reporting the median), then repeats the workload's timed
commands for about ``--seconds`` seconds in this single process, with BLAS
pinned to one thread and ``--workers 1``. Every command's exit code and
outputs are checked.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json, their times in seconds at nominal host
speed (``hostspeed.py``); with ``--trace 1`` repetitions alternate
between untraced and traced, and the metrics are the per-layer ones computed
from the traced repetitions' spans. Human-readable lines come before it.
"""

from __future__ import annotations

import os

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MEIRL_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3      # set-ups per run; setup_s is their median
MIN_REPS = 2    # repetitions per run, at least: outputs must repeat exactly


def _import_program():
    src = ROOT / "src"
    if not (src / "meirl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no meirl sources under {src}; "
                 "run this from the root of a meirl checkout")
    sys.path.insert(0, str(src))
    import meirl
    if Path(meirl.__file__).resolve().parent != (src / "meirl").resolve():
        sys.exit(f"perfbench: imported meirl from {meirl.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# environment block


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha is None:
        for line in (_read(git / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or f"unknown ({ref})"


def _cpu_quota() -> str:
    v2 = _read(Path("/sys/fs/cgroup/cpu.max"))
    if v2 is not None:
        return v2
    quota = _read(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"))
    period = _read(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
    if quota is None:
        return "unavailable"
    return "unlimited" if quota == "-1" else f"{quota}/{period}"


def _blas() -> tuple[str, str]:
    import ctypes

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for line in (_read(Path("/proc/self/maps")) or "").splitlines():
        if "openblas" in line and line.split()[-1].endswith(".so"):
            lib = ctypes.CDLL(line.split()[-1])
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getter = getattr(lib, sym)
                    getter.restype = ctypes.c_int
                    threads = str(getter())
                    break
            break
    return f"{info.get('name')} {info.get('version')}", threads


def environment(seed: int) -> dict:
    import numpy as np
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": _cpu_quota(),
        "commit": _git_commit(),
        "seeds": {"dataset": seed, "train": 0, "eval": 0},
    }


# ---------------------------------------------------------------------------


def describe(values: list, unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    import numpy as np
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit} over n={n}"
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return text + f", p{q} {np.percentile(values, q):.6g} {unit}"
    return text + f", max {max(values):.6g} {unit} (no percentile has 10 samples beyond it)"


def _finite_or_none(value: float):
    # a failed run can leave NaN behind; keep the result line valid JSON
    return value if math.isfinite(value) else None


# ---------------------------------------------------------------------------


def _set_up(workload, runner, root: Path, seed: int, tracer, clock) -> tuple:
    """Run the set-up SETUPS times into root.

    Returns the raw wall time of each and, with a HostSpeed clock, each one
    net of reference samples at nominal host speed (else the raw times)."""
    first, walls, normalised = {}, [], []
    for _ in range(SETUPS):
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        t0 = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            outputs = workload.setup(runner, root, seed)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        normalised.append((t1 - t0 - clock.reference_s(t0, t1)) * clock.factor(t0, t1)
                          if clock else t1 - t0)
        for op, label, data in outputs:
            op.check(first.setdefault(label, data) == data,
                     f"set-up {label} differs from the first set-up")
    return walls, normalised


def _timed_phase(workload, runner, root: Path, work: Path, seconds: float, tracer, clock):
    """Repeat the workload until the next repetition would end after `seconds`.

    With a tracer, every second repetition is traced. Returns the
    repetitions, their wall times (checks included), which were traced, the
    host-speed factor of each (1 without a clock), and the phase's wall time."""
    reps, walls, traced_flags, factors, first = [], [], [], [], {}
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        rep_dir = work / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            rep = workload.repetition(runner, root, rep_dir)
            for op, label, data in rep.outputs:
                op.check(first.setdefault(label, data) == data,
                         f"{label} differs from the first repetition")
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        factors.append(clock.factor(t0, t1) if clock else 1.0)
        reps.append(rep)
        traced_flags.append(traced)
        elapsed = time.perf_counter() - t_start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps, walls, traced_flags, factors, elapsed


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    """One benchmark run; prints the report and returns the exit code."""
    from hostspeed import REF_NOMINAL_S, HostSpeed
    from spans import Tracer
    from workloads import CliRunner

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the untraced run normalises its times by host speed; the traced run
    # keeps raw times, so reference samples never land inside a span
    clock = None if trace else HostSpeed()
    runner = CliRunner(clock)
    setup_tracer, timed_tracer = (Tracer(), Tracer()) if trace else (None, None)
    root = work / "setup"
    with clock.sampling() if clock else contextlib.nullcontext():
        setup_walls, setup_norm = _set_up(workload, runner, root, seed, setup_tracer, clock)
        if runner.failed:
            print("\n".join(runner.problems()), file=sys.stderr)
            print(f"perfbench: set-up of {workload.name} failed", file=sys.stderr)
            return 1
        reps, rep_walls, traced_flags, factors, elapsed = _timed_phase(
            workload, runner, root, work, seconds, timed_tracer, clock)

    print(f"set-up, raw wall: {describe(setup_walls, 's')}")
    print(f"timed phase: {len(reps)} repetitions, {sum(r.units for r in reps)} "
          f"{workload.unit}s, {elapsed:.3f} s")
    plain = [r for r, t in zip(reps, traced_flags) if not t]
    raw_unit_s = [r.wall_s / r.units for r in plain]
    unit_s = [r.wall_s / r.units * f for r, f, t in zip(reps, factors, traced_flags) if not t]
    print(f"  unit_s, raw wall: {describe(raw_unit_s, 's')}; "
          f"samples {' '.join(f'{v:.4f}' for v in raw_unit_s)}")
    if clock:
        print(f"host speed: {len(clock.durations)} reference samples, mean "
              f"{1e3 * statistics.fmean(clock.durations):.4f} ms (nominal "
              f"{1e3 * REF_NOMINAL_S:g} ms); factors {' '.join(f'{f:.3f}' for f in factors)}")
        print(f"set-up at nominal host speed: {describe(setup_norm, 's')}")
        print(f"  unit_s at nominal host speed: {describe(unit_s, 's')}; "
              f"samples {' '.join(f'{v:.4f}' for v in unit_s)}")
    for key in plain[0].figures:
        print(f"  {key}, raw wall: {describe([r.figures[key] for r in plain], 's')}")
    for key, value in reps[0].quality.items():
        print(f"  {key}: {value!r}")
    fail_frac = runner.failed / runner.attempted
    print(f"  fail_frac: {fail_frac!r} ({runner.failed} of {runner.attempted} operations)")
    for problem in runner.problems():
        print(f"  FAILED {problem}")

    if trace:
        from layers import per_layer_metrics
        traced = [(r, w) for r, w, t in zip(reps, rep_walls, traced_flags) if t]
        units = sum(r.units for r, _ in traced)
        traced_wall = sum(w for _, w in traced)
        overhead = (statistics.median(r.wall_s / r.units for r, _ in traced)
                    - statistics.median(raw_unit_s))
        metrics = per_layer_metrics(spec["per_layer"], timed_tracer, setup_tracer, units,
                                    SETUPS, traced_wall, overhead)
        covered = timed_tracer.top_level_s()
        print(f"traced repetitions: {len(traced)}, {traced_wall:.3f} s; top-level "
              f"cli.main spans {covered:.3f} s ({100 * covered / traced_wall:.1f}%), "
              f"uncovered {traced_wall - covered:.3f} s; tracing overhead "
              f"{overhead:+.4g} s per {workload.unit}")
        out = HERE / "_traces"
        timed_tracer.write(out / f"{workload.name}-seed{seed}-timed.npz")
        setup_tracer.write(out / f"{workload.name}-seed{seed}-setup.npz")
        print(f"  spans written to {out.relative_to(ROOT)}/")
        for name, m in metrics.items():
            print(f"  {name}: {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "setup_s": statistics.median(setup_norm),
            "unit_s": statistics.median(unit_s),
            "nll": _finite_or_none(reps[0].nll),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - fail_frac,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
