#!/usr/bin/env python3
"""Campaign benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-matrix --seed 0 --seconds 20 --trace 0

Build output goes to stderr; stdout carries the benchmark's metric lines and,
last, one JSON result object. The build lands in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), state kept between runs (traces, reports,
deterministic counters) in .../perfbench-state. Exits non-zero when the build,
the benchmark's self-test or any correctness check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-matrix", "protect-sweep", "served-planned"]
BUILD_JOBS = "4"


def build(build_dir):
    """Configures and builds the benchmark; output goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    state_dir = os.path.join(target, "perfbench-state")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(state_dir, exist_ok=True)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")])
    if selftest.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    bench = subprocess.run([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--state-dir", state_dir,
        "--reference-dir", os.path.join(HERE, "reference"),
    ])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
