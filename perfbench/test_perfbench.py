#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # all workloads (~4 min)
    PERFBENCH_TEST_WORKLOADS=outage_edit python3 perfbench/test_perfbench.py

Checks that one seed gives identical simulated metrics on two runs, that
another seed still passes every correctness check, that every printed
metric name is declared in BENCHMARK.json with its unit, that the traced
run drops no RPC span and writes its spans, and (through gvfs_perfbench
--selftest) that the quantile helper is right on small fixed samples.
"""
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BINARY = ROOT / ".bench_build" / "perfbench" / "gvfs_perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w for w in os.environ.get(
    "PERFBENCH_TEST_WORKLOADS",
    ",".join(w["name"] for w in SPEC["workloads"])).split(",") if w]
# Short runs: gvfs_perfbench still makes its minimum number of reps.
SECONDS = 1
# Units of simulated (virtual-time or count-ratio) figures, which must
# repeat exactly for one seed.
SIMULATED = {"vm_ready_s_p50", "vm_ready_s_p95", "fs_op_ms_p50", "fs_op_ms_p99",
             "sim_makespan_s", "wan_bytes_per_guest_byte",
             "origin_rpcs_per_guest_op", "op_success_frac"}

_cache = {}


def run(workload, seed, trace=0):
    key = (workload, seed, trace)
    if key not in _cache:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        lines = done.stdout.splitlines()
        _cache[key] = (json.loads(lines[-1]), lines[:-1])
    return _cache[key]


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class QuantileTest(unittest.TestCase):
    def test_quantile_selftest(self):
        run(WORKLOADS[0], 1)  # builds gvfs_perfbench
        done = subprocess.run([str(BINARY), "--selftest"], stdout=subprocess.PIPE,
                              text=True, check=False)
        self.assertEqual(done.returncode, 0)
        self.assertIn("selftest ok", done.stdout)


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_simulated_metrics(self):
        for w in WORKLOADS:
            first, _ = run(w, 7)
            _cache.pop((w, 7, 0))
            second, _ = run(w, 7)
            for name in SIMULATED:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"], f"{w}: {name}")

    def test_default_and_other_seed_pass_checks(self):
        for w in WORKLOADS:
            for seed in (1, 2):
                result, report = run(w, seed)
                self.assertTrue(result["correct"], f"{w} seed {seed}: {report}")
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["metrics"]["op_success_frac"]["value"], 1.0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       f"{w} seed {seed}: {m['name']}")
            # A different seed gives different inputs.
            self.assertNotEqual(run(w, 1)[0]["metrics"]["sim_makespan_s"],
                                run(w, 2)[0]["metrics"]["sim_makespan_s"], w)

    def test_printed_names_are_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            result, report = run(WORKLOADS[-1], 1, trace)
            self.assertEqual(set(result["metrics"]), set(declared))
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], declared[name], name)
            for line in report:
                self.assertTrue(line.startswith("# "), line)

    def test_traced_run(self):
        w = WORKLOADS[-1]
        result, report = run(w, 1, 1)
        m = result["metrics"]
        self.assertTrue(result["correct"], report)
        self.assertEqual(m["rpc.span.dropped"]["value"], 0)
        self.assertGreater(m["rpc.span.count"]["value"], 0)
        self.assertGreater(m["trace.untraced_host_s"]["value"], 0)
        self.assertIn("trace.overhead_frac", m)
        spans = json.loads((ROOT / ".bench_build" / "traces" /
                            f"{w}-seed1.json").read_text(encoding="utf-8"))
        self.assertTrue(spans)
        for s in spans[:100]:
            self.assertTrue({"name", "parent", "group", "host_start_ns", "host_end_ns",
                             "self_ns", "sim_start_ns", "sim_end_ns"} <= set(s))
            self.assertLess(s["parent"], s["id"])
        self.assertTrue(any(re.match(r"# trace: untraced", l) for l in report))


if __name__ == "__main__":
    unittest.main(verbosity=2)
