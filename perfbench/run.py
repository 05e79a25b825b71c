#!/usr/bin/env python3
# Copyright 2026 The claks Authors.
"""Builds the claks benchmark program from source and runs one workload.

Run from the root of a claks checkout:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the claks
library plus the benchmark program, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only
rebuild what changed. Build output goes to stderr, so the program's result
JSON stays the last line of stdout. Trace files land in .bench_out/.
"""

import argparse
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "service", "search_service.h")):
        fail("claks sources not found under %s/src" % root)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "claks_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "claks_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "analyst", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    start = time.monotonic()
    process = subprocess.Popen(command, cwd=root)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write("perfbench: %s seed %d ran %.1f s\n" %
                     (args.workload, args.seed, time.monotonic() - start))
    sys.exit(code)


if __name__ == "__main__":
    main()
