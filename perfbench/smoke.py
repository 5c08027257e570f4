#!/usr/bin/env python3
"""Smoke check for the benchmark: a tiny namespace and a short run of every
workload, untraced and traced.

Run from the repository root:

    python3 perfbench/smoke.py

For each run it asserts that the last stdout line parses as the result
object, that the correctness checks passed with no failed op, and that every
metric BENCHMARK.json names (end_to_end untraced, per_layer traced) prints
with its unit. Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--dirs", "300", "--objects", "3000"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), out.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run(workload, trace)
            label = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{label}: unexpected result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                sys.exit(f"{label}: correctness failed\n{stdout[-3000:]}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                sys.exit(f"{label}: bad attempted count {result['attempted']}")
            expected = {m["name"]: m["unit"] for m in bench[section]}
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                missing = sorted(set(expected) - set(metrics))
                extra = sorted(set(metrics) - set(expected))
                sys.exit(f"{label}: metrics differ; missing {missing}, extra {extra}")
            for name, unit in expected.items():
                value = metrics[name]
                if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
                    sys.exit(f"{label}: metric {name} = {value}, want unit {unit}")
            for phase in ("model", "host"):
                if f"cost model [{phase}]" not in stdout:
                    sys.exit(f"{label}: cost model of the {phase} phase not printed")
            print(f"ok  {label}: {len(metrics)} metrics, {result['attempted']} ops")
    print("smoke check passed")


if __name__ == "__main__":
    main()
