#!/usr/bin/env python3
"""Tests for run.py's result comparison, over fabricated result files.

  python3 -m unittest discover -s bench/e2e -p 'test_*.py'
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("e2e_run",
                                               os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = {"end_to_end": [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "throughput_jobs_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
]}


def result(latency, throughput, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {
                "latency_p50_ms": {"value": latency, "unit": "ms"},
                "throughput_jobs_s": {"value": throughput, "unit": "1/s"}}}


def runs(workload, *results):
    return [{workload: r} for r in results]


def verdicts(base, new):
    out = io.StringIO()
    regressed = run.compare(SPEC, base, new, out=out)
    table = {}
    for line in out.getvalue().splitlines()[1:]:
        cols = line.split()
        table[(cols[0], cols[1])] = cols[-1]
    return regressed, table, out.getvalue()


class CompareTest(unittest.TestCase):
    BASE = runs("w", result(100, 50), result(101, 50.5), result(99, 49.5))

    def test_same_numbers_are_within(self):
        regressed, table, _ = verdicts(self.BASE, self.BASE)
        self.assertFalse(regressed)
        self.assertEqual(table[("w", "latency_p50_ms")], "within")
        self.assertEqual(table[("w", "throughput_jobs_s")], "within")
        self.assertEqual(table[("w", "error_ratio")], "within")

    def test_worse_beyond_bound_regresses_in_each_direction(self):
        new = runs("w", result(120, 40), result(121, 40.5), result(119, 39.5))
        regressed, table, _ = verdicts(self.BASE, new)
        self.assertTrue(regressed)
        self.assertEqual(table[("w", "latency_p50_ms")], "regression")
        self.assertEqual(table[("w", "throughput_jobs_s")], "regression")

    def test_better_beyond_bound_is_better(self):
        new = runs("w", result(80, 60), result(81, 60.5), result(79, 59.5))
        regressed, table, _ = verdicts(self.BASE, new)
        self.assertFalse(regressed)
        self.assertEqual(table[("w", "latency_p50_ms")], "better")

    def test_spread_wider_than_bound_is_unresolved(self):
        new = runs("w", result(80, 50), result(130, 50), result(150, 50))
        regressed, table, _ = verdicts(self.BASE, new)
        self.assertFalse(regressed)
        self.assertEqual(table[("w", "latency_p50_ms")], "unresolved")

    def test_noisy_but_every_run_better_is_better(self):
        new = runs("w", result(60, 50), result(80, 50), result(95, 50))
        _, table, _ = verdicts(self.BASE, new)
        self.assertEqual(table[("w", "latency_p50_ms")], "better")

    def test_higher_error_ratio_regresses(self):
        new = runs("w", result(100, 50), result(100, 50, failed=1),
                   result(100, 50))
        regressed, table, _ = verdicts(self.BASE, new)
        self.assertTrue(regressed)
        self.assertEqual(table[("w", "error_ratio")], "regression")

    def test_workloads_get_their_own_rows_with_the_base_value(self):
        base = [{"a": result(100, 50), "b": result(10, 5)}]
        new = [{"a": result(100, 50), "b": result(20, 5)}]
        regressed, table, text = verdicts(base, new)
        self.assertTrue(regressed)
        self.assertEqual(table[("a", "latency_p50_ms")], "within")
        self.assertEqual(table[("b", "latency_p50_ms")], "regression")
        row = [l for l in text.splitlines()
               if l.startswith("b ") and "latency" in l][0].split()
        self.assertEqual((row[2], row[3], row[4]), ("10", "20", "2.000"))


class CompareCliTest(unittest.TestCase):
    """`run.py compare BASE NEW` over directories of --out files, with the
    bounds of the committed BENCHMARK.json."""

    def write_runs(self, directory, scale):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        os.makedirs(directory)
        for i in range(3):
            metrics = {m["name"]: {"value": 100.0 * (scale if m["better"] ==
                                                     "lower" else 1 / scale),
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            with open(os.path.join(directory, f"run-{i}.json"), "w") as f:
                json.dump({"svc-steal-mix": {"correct": True,
                                             "attempted": 10, "failed": 0,
                                             "metrics": metrics}}, f)

    def compare(self, base_scale, new_scale):
        with tempfile.TemporaryDirectory() as tmp:
            base, new = os.path.join(tmp, "base"), os.path.join(tmp, "new")
            self.write_runs(base, base_scale)
            self.write_runs(new, new_scale)
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "compare",
                 base, new], capture_output=True, text=True)

    def test_exit_codes(self):
        self.assertEqual(self.compare(1.0, 1.0).returncode, 0)
        slower = self.compare(1.0, 2.0)
        self.assertEqual(slower.returncode, 1)
        self.assertIn("regression", slower.stdout)


if __name__ == "__main__":
    unittest.main()
