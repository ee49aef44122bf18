#!/usr/bin/env python3
"""Smoke test of the repository benchmark at a tiny size.

    python3 perfbench/test_smoke.py

Run from anywhere.  For every workload in BENCHMARK.json, both the
untraced and the traced run must finish, judge their outputs correct with
no failed operation (fail_frac == 0), and print exactly the metrics
BENCHMARK.json names, with its units.  The benchmark must also refuse to
start, naming the variable, when a CCD_* override is set.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, env=None, trace_dir=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class Smoke(unittest.TestCase):
    def check(self, workload, trace, expected):
        with tempfile.TemporaryDirectory() as spans:
            proc = run(workload, trace, trace_dir=spans)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            if trace:
                self.assertTrue(os.listdir(spans), "the traced run writes its spans")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0, "fail_frac must be 0")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in expected})

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, BENCH["end_to_end"])

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, BENCH["per_layer"])

    def test_refuses_library_overrides(self):
        for var in ["CCD_PROBE", "CCD_OBS", "CCD_FAULTS", "CCD_WORKERS", "CCD_SCALE"]:
            with self.subTest(var=var):
                proc = run("svc-hot", 0, env=dict(os.environ, **{var: "1"}))
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn(var, proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
