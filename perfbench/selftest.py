#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--tiny, untraced and traced, and fails unless each run passes its
correctness checks and its final line names every end_to_end
(untraced) or per_layer (traced) metric with a unit and a finite value.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit code {}".format(proc.returncode)
    return json.loads(lines[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definitions = json.load(f)
    problems = []
    for workload in (w["name"] for w in definitions["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = "{} --trace {}".format(workload, trace)
            before = len(problems)
            result, error = run(workload, trace)
            if error:
                problems.append("{}: {}".format(label, error))
                result = {}
            elif set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("{}: wrong result keys".format(label))
            elif result["correct"] is not True or result["attempted"] < 1:
                problems.append("{}: checks failed".format(label))
            metrics = result.get("metrics", {})
            for spec in definitions[group] if result else ():
                got = metrics.get(spec["name"])
                if (not isinstance(got, dict) or not got.get("unit")
                        or not isinstance(got.get("value"), (int, float))
                        or not math.isfinite(got["value"])):
                    problems.append("{}: metric {} missing or without a "
                                    "unit".format(label, spec["name"]))
            print(("ok   " if len(problems) == before else "FAIL ") + label)
    for p in problems:
        print("  " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
