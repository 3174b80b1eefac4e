"""Self-tests of the benchmark, run in smoke mode (tiny streams).

    python3 -m unittest discover -s perfbench/tests

They check that every workload prints exactly the metric names and units
BENCHMARK.json declares, that the digest gate passes on the recorded
reference and fails (without aborting) on a perturbed one, that the
exact-repeat counts repeat, and that the traced run's Chrome trace loads
as JSON with the ledger's layer spans in it.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)
DEFAULT_SEED = 20250707

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ["analysis.builds", "batch.passes_per_scenario",
                "core.passes_per_scenario", "checkpoint.saves",
                "checkpoint.bytes_per_save", "gen.grow_events",
                "batch.grow_events", "sched.success_ratio"]


def run(workload, trace, seed=DEFAULT_SEED, extra=()):
    proc = subprocess.run(
        [sys.executable, os.path.join(PKG, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def check_shape(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, out = run(workload, 0)
                self.check_shape(result, "end_to_end")
                self.assertIn("reference digest pinned for the full stream",
                              out)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_ledger(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, out = run(workload, 1)
                self.check_shape(result, "per_layer")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["gen.us_per_scenario"], 0)
                self.assertGreater(m["sched.us_per_scenario"], 0)
                self.assertIn("layers + unattributed", out)
                # Every scenario's analysis is built in the analysis row.
                self.assertNotIn("note: analysis builds", out)
                sliced = (m["batch.us_per_scenario"] > 0) != (
                    m["core.slice.us_per_scenario"] > 0)
                self.assertTrue(sliced, "exactly one slicing layer runs")
                self.assertEqual(m["checkpoint.saves"] > 0,
                                 workload == "ckpt_resume")

    def test_counts_repeat_exactly(self):
        first, _ = run("ckpt_resume", 1)
        second, _ = run("ckpt_resume", 1)
        for name in EXACT_COUNTS:
            self.assertEqual(first["metrics"][name], second["metrics"][name],
                             name)

    def test_perturbed_reference_counts_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, out = run(workload, 0, extra=["--perturb-reference"])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])
                self.assertIn("differs from the recorded reference", out)

    def test_other_seed_cross_checks_without_reference(self):
        result, out = run("paper_stream", 0, seed=7)
        self.assertTrue(result["correct"])
        self.assertNotIn("reference digest pinned", out)

    def test_chrome_trace_loads(self):
        run("fig_grid", 1)
        path = os.path.join(ROOT, ".perfbench_out",
                            f"fig_grid-smoke-seed{DEFAULT_SEED}.trace.json")
        with open(path) as f:
            trace = json.load(f)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        self.assertTrue({"gen", "analysis", "core.slice", "sched",
                         "sweep.aggregate", "cell", "chunk"} <= names)
        for e in spans:
            self.assertGreaterEqual(e["dur"], 0)
            self.assertIn("parent", e["args"])


if __name__ == "__main__":
    unittest.main()
