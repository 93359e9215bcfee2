#!/usr/bin/env python3
"""Builds orion_bench from this checkout and runs one workload.

Usage (from the repository root):
    python3 orion_bench/run.py --workload lola-boot --seed 1 --seconds 20 \
        --trace 0

The first run configures and builds a Release tree in .bench_build/ (the
orion library plus the benchmark, nothing else); later runs only check it
is up to date. Build output goes to stderr, so the benchmark's JSON result
stays the last line of stdout. --trace 1 also writes the chrome://tracing
file to .bench_build/trace-<workload>.json. The exit code is the
benchmark's, or 1 when the build fails or the run exceeds its time limit.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "orion_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds; serialized by a lock in BUILD."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "orion_bench",
                      "-j", "4"])
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="two requests and one set-up instead of the "
                         "timed loop")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file",
           os.path.join(BUILD, f"trace-{args.workload}.json")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
