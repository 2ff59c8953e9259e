#!/usr/bin/env python3
"""Seeded benchmark of the Edge TPU characterization library.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the etpu library from src/ plus the etpu_perfbench
driver) into .bench_build/perfbench, prepares the shared full-space
inputs once, runs one workload and prints its report. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1.

--tiny runs the same phases on the <= 5-vertex space with few
requests; perfbench/selftest.py uses it.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "etpu_perfbench")
WORKLOADS = ("campaign", "serve_scan", "serve_point", "search")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout):
    """Run cmd with its output on stderr; fail the benchmark on error."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout, env=env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as exc:
        fail("{} failed: {}".format(cmd[0], exc))


def build():
    jobs = str(os.cpu_count() or 1)
    call(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
         600)
    call(["cmake", "--build", BUILD, "--target", "etpu_perfbench",
          "-j", jobs], 900)


def prepare(tiny):
    """The shared inputs: built once per checkout, never timed."""
    path = os.path.join(BUILD, "inputs-tiny" if tiny else "inputs")
    if not os.path.isdir(path):
        cmd = [BINARY, "prepare", "--dir", path]
        call(cmd + ["--tiny"] if tiny else cmd, 600)
    return path


def load_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    definitions = load_definitions()
    build()
    inputs = prepare(args.tiny)
    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", inputs,
           "--scratch", os.path.join(BUILD, "scratch")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded {} s".format(RUN_TIMEOUT_S))
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("etpu_perfbench exited with code {}".format(proc.returncode))

    group = "per_layer" if args.trace else "end_to_end"
    measured = result[group]
    metrics = {}
    for spec in definitions[group]:
        name = spec["name"]
        got = measured.get(name)
        if got is None:
            fail("metric {} was not measured".format(name))
        if got["unit"] != spec["unit"]:
            fail("metric {} has unit {}, BENCHMARK.json says {}".format(
                name, got["unit"], spec["unit"]))
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
