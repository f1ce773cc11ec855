#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json, and the ungated imdb_hot_wire, in
smoke mode (a small dataset, one second per pass) with --trace 0 and
--trace 1, and checks that each run exits 0, passes its own correctness
checks, and prints a result line whose metrics are exactly the end-to-end
(trace 0) or per-layer (trace 1) metrics named in BENCHMARK.json, with their
units. Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads the driver runs that BENCHMARK.json does not gate on (see the
# header of perfbench.cc for why).
UNGATED_WORKLOADS = ["imdb_hot_wire"]


def check_run(spec, workload, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return "exit %d: %s" % (proc.returncode, proc.stderr[-500:])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if result["correct"] is not True or result["failed"] != 0:
        return "correct=%s failed=%s" % (result["correct"], result["failed"])
    if result["attempted"] < 1:
        return "nothing attempted"
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in want}:
        return "metrics %s" % sorted(got.items())
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    for name in names:
        for trace in (0, 1):
            error = check_run(spec, name, trace)
            status = "ok" if error is None else "FAIL " + error
            print("%-14s trace %d  %s" % (name, trace, status))
            failures += error is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
