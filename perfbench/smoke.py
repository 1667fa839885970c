#!/usr/bin/env python3
"""Smoke test of the campaign benchmark, on tiny grids; about a minute.

Run from the repository root:

    python3 perfbench/smoke.py

Checks that the benchmark's metric catalogue (names, units, directions)
and workload list equal BENCHMARK.json's, that every workload prints a
well-formed, correct result object with --trace 0 and --trace 1, and that
every correctness check fires when fed a mismatched result. Exits non-zero
on the first failure.
"""

import json
import math
import os
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_catalogue(binary, manifest):
    described = json.loads(subprocess.run(
        [binary, "--describe"], capture_output=True, text=True,
        check=True).stdout)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        got = [(m["name"], m["unit"], m["better"]) for m in described[key]]
        if want != got:
            fail(f"{key} catalogue differs from BENCHMARK.json:\n"
                 f"  manifest {want}\n  bench    {got}")
    workloads = [w["name"] for w in manifest["workloads"]]
    if workloads != described["workloads"]:
        fail(f"workloads differ: {workloads} vs {described['workloads']}")
    print("catalogue matches BENCHMARK.json")


def check_result(line, expected, label):
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"{label}: last line is not JSON: {line!r}")
    if set(res) != RESULT_KEYS:
        fail(f"{label}: keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0:
        fail(f"{label}: not correct: {line}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail(f"{label}: attempted {res['attempted']!r}")
    units = {m["name"]: m["unit"] for m in expected}
    if list(res["metrics"]) != list(units):
        fail(f"{label}: metrics {list(res['metrics'])}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            fail(f"{label}: metric {name} = {m}")
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail(f"{label}: metric {name} value {m['value']!r}")


def main():
    binary = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    check_catalogue(binary, manifest)

    for w in run.WORKLOADS:
        for trace in (0, 1):
            label = f"{w} --trace {trace}"
            p = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", w, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True)
            if p.returncode != 0:
                fail(f"{label}: exit {p.returncode}\n{p.stderr[-2000:]}")
            expected = manifest["per_layer" if trace else "end_to_end"]
            check_result(p.stdout.strip().splitlines()[-1], expected, label)
            print(f"{label}: result object well-formed and correct")

    work = os.path.join(run.ROOT, ".bench_build", "runs", "selftest")
    p = subprocess.run([binary, "--selftest", "--work-dir", work],
                       capture_output=True, text=True)
    print(p.stdout, end="")
    if p.returncode != 0:
        fail(f"a correctness check did not fire\n{p.stderr[-2000:]}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
