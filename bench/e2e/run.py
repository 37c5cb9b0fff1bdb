#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark from a source checkout.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds neo_e2e into build/e2e (CMake, Release) when needed, runs it for one
workload, passes its `workload metric value unit` lines through, and prints
one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"p50_us": {"value": 49.04, "unit": "us"}, ...}}

--trace 0 runs the untraced pass (end-to-end metrics); --trace 1 the traced
pass (per-layer metrics; spans and request records go to build/e2e/trace).
Exits non-zero without a result when the build or the run fails, and with
the result but code 1 when a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BINARY = os.path.join(BUILD, "neo_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j4", "--target", "neo_e2e"],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        built = build()
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if not built:
        print("run.py: build failed", file=sys.stderr)
        return 1

    report_path = os.path.join(
        BUILD, f"result-{args.workload}-{args.seed}-{args.trace}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", report_path]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace")]
    if os.path.exists(report_path):
        os.remove(report_path)
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: neo_e2e failed: {e}", file=sys.stderr)
        return 1
    try:
        with open(report_path) as f:
            reports = json.load(f)["workloads"]
    except (OSError, ValueError, KeyError) as e:
        print(f"run.py: no report from neo_e2e (exit {done.returncode}): {e}",
              file=sys.stderr)
        return 1
    if len(reports) != 1:
        print("run.py: expected one workload report", file=sys.stderr)
        return 1
    rep = reports[0]
    correct = bool(rep["correct"]) and done.returncode == 0
    result = {
        "correct": correct,
        "attempted": int(rep["attempted"]),
        "failed": int(rep["failed"]),
        "metrics": rep["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
