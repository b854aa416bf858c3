#!/usr/bin/env python3
"""OpineDB's front-door benchmark: builds the driver, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver and the OpineDB library are built
from source into .bench_build/ (CMake, Release) on first use. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones. Build output goes to standard error. The exit code is
nonzero when the build fails, an answer check fails, or the run overruns.

Workloads: hotel_adhoc, scale_scan, hotel_ingest (see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; leave the driver room to exit cleanly.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no OpineDB sources (src/) beside perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not build():
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work", work]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
