#!/usr/bin/env python3
"""Build and run the GVFS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program gvfs_perfbench (perfbench/CMakeLists.txt: the
simulator libraries from src/ plus perfbench/cpp/) into .bench_build/perfbench
under the checkout, runs one workload for about S seconds of host time, and
prints its report. The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set; the traced run also writes its spans to
.bench_build/traces/<workload>-seed<N>.json. Build output goes to stderr.
Exits non-zero, printing no result, when the program cannot be built or its
output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gvfs_perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "gvfs_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def declared(mode):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if mode else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        {w["name"] for w in spec["workloads"]}


def validate(result, mode):
    """The result line must carry exactly the declared metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    units, _ = declared(mode)
    got = result["metrics"]
    if set(got) != set(units):
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        return f"metric names differ: missing {missing}, undeclared {extra}"
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            return f"metric {name} is malformed or has the wrong unit"
        if not isinstance(m["value"], (int, float)):
            return f"metric {name} is not a number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _, workloads = declared(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; declared: {sorted(workloads)}")
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACES / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"gvfs_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"gvfs_perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line of gvfs_perfbench is not JSON")
    problem = validate(result, args.trace)
    if problem:
        fail(problem)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
