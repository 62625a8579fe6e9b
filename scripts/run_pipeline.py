#!/usr/bin/env python3
"""Generate a synthetic dataset, train every learned method, and tabulate.

Drives the meirl CLI in-process so a pipeline run behaves byte-for-byte like
the equivalent shell commands. The defaults reproduce the speed-conditioned
benchmark; --quick shrinks everything for a smoke run.
"""
import argparse
import sys
from pathlib import Path

from meirl.cli import main as cli


def run(argv):
    rc = cli([str(a) for a in argv])
    if rc != 0:
        sys.exit(rc)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True, help="working directory for all stages")
    p.add_argument("--demos", type=int, default=240)
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--layouts", default="straight,curve,tee")
    p.add_argument("--split", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--bc-epochs", type=int, default=200)
    p.add_argument("--samples", type=int, default=1000,
                   help="rollouts per demo for the Hausdorff column")
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes for a fast end-to-end smoke run")
    return p.parse_args()


def main():
    args = parse_args()
    if args.quick:
        args.demos, args.iterations, args.bc_epochs = 24, 20, 30
        args.samples = 50
    out = Path(args.out)
    ds = out / "dataset"

    if not (ds / "manifest.json").is_file():
        run(["generate", "--out", ds, "--demos", args.demos,
             "--rows", args.rows, "--cols", args.cols,
             "--layouts", args.layouts, "--split", args.split,
             "--seed", args.seed])
    else:
        print(f"reusing dataset at {ds}")

    ckpts = {}
    for method, extra in (("ours", []),
                          ("irl_nokin", ["--method", "irl_nokin"]),
                          ("bc", ["--method", "bc",
                                  "--iterations", args.bc_epochs])):
        run_dir = out / method
        ckpts[method] = run_dir / "checkpoint.ckpt"
        if ckpts[method].is_file():
            print(f"reusing {method} checkpoint")
            continue
        base = ["train", "--dataset", ds, "--out", run_dir]
        if method != "bc":
            base += ["--iterations", args.iterations, "--batch-size", args.batch_size]
        run(base + extra)

    run(["eval", "--dataset", ds, "--out", out / "eval",
         "--checkpoint", ckpts["ours"],
         "--checkpoint-nokin", ckpts["irl_nokin"],
         "--checkpoint-bc", ckpts["bc"],
         "--samples", args.samples])
    print(f"\nfull table: {out / 'eval' / 'table.csv'}")


if __name__ == "__main__":
    main()
