#!/usr/bin/env python3
"""compare.py on synthetic run sets: one per verdict, plus the input errors.

    python3 gs_bench/test_compare.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_us", "unit": "us", "better": "lower",
         "bound": 0.15},
    ],
}

# Ten run-to-run values around 100 with a ~2% spread.
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 102.0, 98.0, 100.2, 99.8, 101.5]


def result(throughput, latency, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"throughput": {"value": throughput, "unit": "1/s"},
                        "latency_p50_us": {"value": latency, "unit": "us"}}}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.bench = os.path.join(self.tmp.name, "BENCHMARK.json")
        with open(self.bench, "w") as f:
            json.dump(BENCHMARK, f)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, side, results, workload="sweep"):
        d = os.path.join(self.tmp.name, side)
        os.makedirs(d, exist_ok=True)
        for i, r in enumerate(results):
            with open(os.path.join(d, f"{workload}.{i}.out"), "w") as f:
                f.write("gs_bench table lines\n" + json.dumps(r) + "\n")
        return d

    def verdicts(self, parent, change):
        rows = compare.compare(
            compare.load_runs(self.write("parent", parent)),
            compare.load_runs(self.write("change", change)), BENCHMARK)
        return {name: v for _, name, v, _ in rows}

    def test_same_distribution_is_unchanged(self):
        parent = [result(v, v) for v in STEADY]
        change = [result(v, v) for v in reversed(STEADY)]
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput": "unchanged", "latency_p50_us": "unchanged"})

    def test_clear_gain_is_improved(self):
        parent = [result(v, v) for v in STEADY]
        change = [result(v * 1.2, v * 0.8) for v in STEADY]
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput": "improved", "latency_p50_us": "improved"})

    def test_gain_with_more_failures_is_not_improved(self):
        parent = [result(v, v) for v in STEADY]
        change = [result(v * 1.2, v, failed=1) for v in STEADY]
        self.assertEqual(self.verdicts(parent, change)["throughput"], "unchanged")

    def test_loss_beyond_bound_is_regressed(self):
        parent = [result(v, v) for v in STEADY]
        change = [result(v * 0.8, v * 1.3) for v in STEADY]
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput": "regressed", "latency_p50_us": "regressed"})

    def test_loss_within_bound_is_unchanged(self):
        parent = [result(v, v) for v in STEADY]
        change = [result(v * 0.95, v * 1.1) for v in STEADY]
        self.assertEqual(self.verdicts(parent, change),
                         {"throughput": "unchanged", "latency_p50_us": "unchanged"})

    def test_spread_wider_than_bound_is_unresolved(self):
        wide = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 65.0, 135.0]
        parent = [result(v, 100.0) for v in wide]
        change = [result(v * 0.97, 100.0) for v in reversed(wide)]
        self.assertEqual(self.verdicts(parent, change)["throughput"], "unresolved")

    def test_incorrect_change_run_is_regressed(self):
        parent = [result(v, v) for v in STEADY]
        change = [result(v, v, correct=(i != 3)) for i, v in enumerate(STEADY)]
        self.assertEqual(self.verdicts(parent, change)["correct"], "regressed")

    def test_cli_exit_codes(self):
        parent = self.write("parent", [result(v, v) for v in STEADY])
        worse = self.write("worse", [result(v * 0.5, v) for v in STEADY])
        few = self.write("few", [result(v, v) for v in STEADY[:9]])
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "compare.py")

        def run(a, b):
            return subprocess.run(
                [sys.executable, script, a, b, "--benchmark", self.bench],
                capture_output=True, text=True).returncode

        self.assertEqual(run(parent, parent), 0)
        self.assertEqual(run(parent, worse), 1)
        self.assertEqual(run(parent, few), 2)


if __name__ == "__main__":
    unittest.main()
