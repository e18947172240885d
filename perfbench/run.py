#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark program (Release) under .bench_build/perfbench;
later calls only re-check the build. Its output is printed unchanged once it
has exited cleanly: human-readable lines, then one JSON host-facts line, then
the result as the last line. Build output goes to standard error. On any
failure nothing is printed to standard output and the exit code is non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fpisa_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in (ROOT / "CMakeLists.txt", ROOT / "src"):
        if not needed.exists():
            fail(f"no FPISA source tree: {needed} is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "fpisa_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"run failed: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail(f"fpisa_perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("fpisa_perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
