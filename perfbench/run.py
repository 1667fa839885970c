#!/usr/bin/env python3
"""The ramloc campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload measure_grid --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the ramloc library from src/ plus the benchmark program)
into .bench_build/perfbench with CMake, then runs one measurement. Build
output goes to stderr; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("measure_grid", "model_grid", "store_extend")


def build():
    """Configures and builds the benchmark; returns its binary."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    "campaign_bench"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "campaign_bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test grids that run in about a second")
    a = p.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: building the benchmark failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_build", "runs", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work]
    if a.tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
