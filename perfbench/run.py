#!/usr/bin/env python3
"""Build and run the closed-loop broker benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig8-durable --seed 1 --seconds 10 --trace 0

Builds perfbench/brokerbench.exe with dune, runs it, passes its output
through, and checks that the last line is the result object whose metrics
are exactly those BENCHMARK.json names for this kind of run (end_to_end
for --trace 0, per_layer for --trace 1), each with its unit.  Exits
non-zero when the checkout cannot be built, the output is malformed
(no result line then), or a correctness check failed (the result line,
with every request counted as failed, is still printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
TARGET = "./perfbench/brokerbench.exe"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON", 1)
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys", 1)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)), 1)
    for name, unit in want.items():
        if got[name].get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
            fail("metric %s lacks its value or unit %s" % (name, unit), 1)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a source checkout (missing %s)" % need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %s" % args.workload)

    build = subprocess.run(
        dune_command() + ["build", "--root", root, TARGET],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "brokerbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, "perfbench-out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    check_result(last, spec, args.trace == 1)
    print(last)
    if proc.returncode != 0:
        fail("benchmark exited with %d: a correctness check failed" % proc.returncode, 1)


if __name__ == "__main__":
    main()
