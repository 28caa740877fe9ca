#!/usr/bin/env python3
"""Build bench_ledger from source, then run one ledger workload.

Usage (from the repository root):
    python3 bench/ledger/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

The build lives in .bench_build/ledger (CMake, Release, the flags of the
top-level build); run outputs go to .bench_build/ledger-out: the ledger JSON
document of every run and, with --trace 1, the Chrome trace of the run.
Build logs go to stderr, so the last line of stdout is the ledger's result
object. After a successful build this process becomes bench_ledger itself.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
OUT = os.path.join(ROOT, ".bench_build", "ledger-out")


def build():
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "3"]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    binary = os.path.join(BUILD, "bench_ledger")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--json", os.path.join(OUT, f"{args.workload}-{kind}.json")]
    if args.trace:
        cmd += ["--trace", os.path.join(OUT, f"{args.workload}-chrome-trace.json")]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
