#!/usr/bin/env python3
"""Builds perfbench, the Mantle benchmark, from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stat|objchurn|dircommit \\
        --seed N --seconds S --trace 0|1

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run configures and compiles the program's
libraries, later runs only relink what changed. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result. Exits
non-zero, without a result, if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stat", "objchurn", "dircommit")


def build(build_dir):
    # A configure that failed leaves a cache but no Makefile; redo it then.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dirs", type=int, help="namespace directories (default 20000)")
    parser.add_argument("--objects", type=int, help="namespace objects (default 200000)")
    args = parser.parse_args()

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.abspath(target_root)]
    if args.dirs is not None:
        command += ["--dirs", str(args.dirs)]
    if args.objects is not None:
        command += ["--objects", str(args.objects)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
