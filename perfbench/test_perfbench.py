#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- the percentile rule and the workloads' correctness oracles against
  pw::ExactEngine on a tiny catalog (ptk_loadgen --self-test);
- the result names and units of both run modes match BENCHMARK.json
  (short serve_mix runs, the quickest workload);
- compare.py's verdicts.

Builds the benchmark first (perfbench/run.py does the same).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SelfTest(unittest.TestCase):
    def test_percentile_rule_and_oracles(self):
        proc = subprocess.run([os.path.join(run.BUILD, "ptk_loadgen"), "--self-test"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("self-test: ok", proc.stdout)


class ResultNames(unittest.TestCase):
    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve_mix",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def check(self, metrics, specs):
        self.assertEqual(list(metrics), [m["name"] for m in specs])
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])

    def test_end_to_end_names_and_units(self):
        self.check(self.run_bench(0), bench()["end_to_end"])

    def test_per_layer_names_and_units(self):
        self.check(self.run_bench(1), bench()["per_layer"])


class Verdicts(unittest.TestCase):
    metric = {"name": "x_ms", "unit": "ms", "better": "lower", "bound": 0.1}

    def test_within(self):
        self.assertEqual(compare.verdict([10, 10.1, 9.9, 10], [10.5, 10.4, 10.6, 10.5],
                                         self.metric), "within")

    def test_worse(self):
        self.assertEqual(compare.verdict([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12],
                                         self.metric), "WORSE")

    def test_unresolved(self):
        self.assertEqual(compare.verdict([10, 10.1, 9.9, 10], [8, 12, 16, 10],
                                         self.metric), "unresolved")

    def test_higher_is_better(self):
        m = dict(self.metric, better="higher")
        self.assertEqual(compare.verdict([10, 10, 10, 10], [8, 8, 8, 8], m), "WORSE")
        self.assertEqual(compare.verdict([10, 10, 10, 10], [12, 12, 12, 12], m), "within")

    def test_reads_result_directories(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "serve_mix-1.out"), "w") as f:
                f.write("op x\n" + json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                               "metrics": {}}) + "\n")
            got = compare.load_results(d, ["serve_mix", "objectives"])
            self.assertEqual(len(got["serve_mix"]), 1)
            self.assertEqual(got["objectives"], [])


if __name__ == "__main__":
    run.build()
    unittest.main()
