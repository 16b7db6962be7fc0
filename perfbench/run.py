#!/usr/bin/env python3
"""Build the synthesis benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1-full --seed 1 --seconds 20 --trace 0

The library and the benchmark program are compiled from the checkout's src/ and
perfbench/ trees into .bench_build/perfbench (a no-op once built).  Every
argument is passed on to the program; see perfbench/README.md for the
workloads and metrics.  Build output goes to stderr, so the last line of
stdout is the program's JSON result.  Exits non-zero without a result when
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS], check=True, stdout=sys.stderr)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace-out" not in args and "--trace" in args:
        args += ["--trace-out", os.path.join(BUILD, "trace.json")]
    cmd = [os.path.join(BUILD, "perfbench"), "--root", ROOT] + args
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
