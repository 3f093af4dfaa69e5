#!/usr/bin/env python3
"""Build hyms_bench from source and run one workload for a fixed time.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The first run configures and builds
benchmark/ (which builds src/) into .bench_build/; later runs rebuild only
what changed. hyms_bench's report goes to standard output, and the last
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones named in BENCHMARK.json,
with --trace 1 the per_layer ones. Before printing, every one of them is
checked to be present with its unit and a finite value. The exit code is
non-zero when the build, the schema check or an output check fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "hyms_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def check_schema(result, expected):
    """Every metric BENCHMARK.json names, with its unit and a finite value."""
    problems = []
    for m in expected:
        name = m["name"]
        got = result["metrics"].get(name)
        if not NAME.fullmatch(name):
            problems.append(f"{name}: not a valid metric name")
        elif got is None:
            problems.append(f"{name}: missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{name}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{name}: value {got.get('value')!r} not finite")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    binary = build()
    out = os.path.join(BUILD, f"result-{os.getpid()}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", out]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"hyms_bench ran longer than {RUN_TIMEOUT_S} s")
    try:
        with open(out) as f:
            lines = f.read().splitlines()
    except OSError:
        fail(f"hyms_bench exited with {code} and wrote no result")
    finally:
        if os.path.exists(out):
            os.remove(out)
    if len(lines) != 1:
        fail(f"expected one result, hyms_bench wrote {len(lines)}")
    result = json.loads(lines[0])

    problems = check_schema(result, expected)
    if problems:
        fail("schema check failed:\n  " + "\n  ".join(problems))

    correct = code == 0 and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in expected},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
