#!/usr/bin/env python3
"""The benchmark's own tests.

Usage, from the repository root:

    python3 perfbench/test_bench.py          # unit tests + metric table
    python3 perfbench/test_bench.py --full   # also one real run per mode

Builds perfbench and perfbench_tests, runs the C++ unit tests (percentiles
and the ten-samples-beyond rule, span self time, the paced schedule), then
checks that the metric names and units the program prints agree with
BENCHMARK.json. --full also runs one short end-to-end and one traced run
and checks the names in their result lines.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

FULL = "--full" in sys.argv
if FULL:
    sys.argv.remove("--full")

BDIR = run.build(("perfbench", "perfbench_tests"))
BIN = os.path.join(BDIR, "perfbench")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def names_units(entries):
    return [(e["name"], e["unit"]) for e in entries]


class UnitTests(unittest.TestCase):
    def test_cpp_unit_tests(self):
        proc = subprocess.run([os.path.join(BDIR, "perfbench_tests")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class MetricTable(unittest.TestCase):
    def setUp(self):
        out = subprocess.run([BIN, "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        self.table = json.loads(out)
        self.spec = benchmark_json()

    def test_workloads_match(self):
        self.assertEqual(self.table["workloads"],
                         [w["name"] for w in self.spec["workloads"]])

    def test_end_to_end_match(self):
        self.assertEqual(names_units(self.table["end_to_end"]),
                         names_units(self.spec["end_to_end"]))

    def test_per_layer_match(self):
        self.assertEqual(names_units(self.table["per_layer"]),
                         names_units(self.spec["per_layer"]))


@unittest.skipUnless(FULL, "needs --full")
class RealRuns(unittest.TestCase):
    def result(self, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "replay", "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, res, entries):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(
            sorted((k, v["unit"]) for k, v in res["metrics"].items()),
            sorted(names_units(entries)))

    def test_end_to_end_run_prints_every_end_to_end_metric(self):
        self.check(self.result(0), benchmark_json()["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(self.result(1), benchmark_json()["per_layer"])


if __name__ == "__main__":
    unittest.main()
