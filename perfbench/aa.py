#!/usr/bin/env python3
"""A/A check: run every workload on two sides of the same build and compare.

    python3 perfbench/aa.py [--runs 5] [--workloads a,b] [--seconds S]

Each side runs each workload --runs times, seeds 1..runs, alternating
sides run by run (A then B for seed 1, B then A for seed 2, ...). For every
end-to-end metric it prints each side's median and quartiles (Python's
statistics.quantiles, n=4), the spread (quartile distance / median), the
change of B's median against A's, and the metric's bound from
BENCHMARK.json. A row is flagged when a spread (setup_s excepted) exceeds
the bound or B's median is worse than A's by more than the bound. Exits 1
if any row is flagged or any run is not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    metrics = spec["end_to_end"]

    flagged = 0
    for workload in args.workloads.split(","):
        sides = {"A": [], "B": []}
        for seed in range(1, args.runs + 1):
            order = "AB" if seed % 2 else "BA"
            for side in order:
                result = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed} side {side}: not correct")
                    flagged += 1
                sides[side].append(result["metrics"])
        print(f"\n{workload} ({args.runs} runs per side, {args.seconds:g} s each)")
        print(f"{'metric':26} {'side':4} {'median':>13} {'q1':>13} {'q3':>13}"
              f" {'spread':>7} {'B vs A':>7} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = {s: summary([r[name]["value"] for r in runs])
                     for s, runs in sides.items()}
            med_a, med_b = stats["A"][0], stats["B"][0]
            change = (med_b - med_a) / med_a if med_a else 0.0
            worse = change if m["better"] == "lower" else -change
            for side, (med, q1, q3, spread) in stats.items():
                bad = (name != "setup_s" and spread > bound) or \
                    (side == "B" and worse > bound)
                flagged += bad
                print(f"{name:26} {side:4} {med:13.6g} {q1:13.6g} {q3:13.6g}"
                      f" {spread:7.4f} {change if side == 'B' else 0:7.4f}"
                      f" {bound:6.3f}{'  <-- over bound' if bad else ''}")
    print(f"\n{flagged} flagged row(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
