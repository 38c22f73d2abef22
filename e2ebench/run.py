#!/usr/bin/env python3
"""Builds the end-to-end benchmark in Release and runs one workload.

    python3 e2ebench/run.py --workload rmat|serve --seed N \
        --seconds S --trace 0|1 [--small]

Run from the repository root. The library and the benchmark are built
from source into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
spill files and Chrome traces go to its scratch/ subdirectory. Build
output goes to stderr; the benchmark's report goes to stdout and ends
with one JSON line. See e2ebench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the e2e_bench target; exits on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            sys.exit(f"run.py: cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["rmat", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="seconds-long inputs with every check on")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    build(build_dir)

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.small:
        cmd.append("--small")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
