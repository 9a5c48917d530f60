#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0

Run from the repository root. The script builds perfbench/ (its own CMake
project, Release) into .bench_build/ under the root, runs the benchmark
binary with the given arguments and passes its output through. The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero without printing a result when the build fails (for
example when the simulator sources are missing) or when the binary does
not end with a well-formed result line.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tfo_perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(env):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            return False
    return True


def main(argv):
    env = dict(os.environ)
    env.pop("TFO_LANES", None)  # one thread: lanes = 1
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
