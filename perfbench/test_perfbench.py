#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark through run.py's build step and run it in fixed-step
mode (--ops), so every check is deterministic.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

END_TO_END = ["setup_s", "throughput_per_s", "p50_ms", "p90_ms", "secondary_p50_ms",
              "read_p50_ms"]


def drive(workload, seed, ops, trace=0):
    """Runs the benchmark binary; returns (notes, result)."""
    work_dir = os.path.join(run.BUILD_ROOT, "test-" + workload)
    command = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--ops", str(ops), "--trace", str(trace), "--work-dir", work_dir]
    if trace:
        command += ["--trace-out", os.path.join(work_dir, "trace.json")]
    out = subprocess.run(command, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    return [line for line in lines if line.startswith("#")], json.loads(lines[-1])


def note(notes, prefix):
    return next(line for line in notes if line.startswith("# " + prefix))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def assertClean(self, result):
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)

    def test_same_seed_gives_same_stream_and_digest(self):
        for workload, ops in [("serve_churn", 300), ("advise", 3)]:
            notes_a, result_a = drive(workload, 7, ops)
            notes_b, result_b = drive(workload, 7, ops)
            self.assertClean(result_a)
            self.assertClean(result_b)
            key = "admits" if workload != "advise" else "advices"
            self.assertEqual(note(notes_a, key), note(notes_b, key))
            self.assertEqual(result_a["attempted"], result_b["attempted"])

    def test_other_seed_gives_other_stream_with_same_metrics(self):
        notes_a, result_a = drive("serve_churn", 7, 300)
        notes_b, result_b = drive("serve_churn", 8, 300)
        self.assertClean(result_a)
        self.assertClean(result_b)
        self.assertNotEqual(note(notes_a, "admits"), note(notes_b, "admits"))
        self.assertEqual(list(result_a["metrics"]), END_TO_END)
        self.assertEqual(list(result_b["metrics"]), END_TO_END)
        for metric in result_a["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_packed_rack_holds_256_residents_without_refusals(self):
        # The benchmark fails the run when any step leaves the rack off 256
        # residents, and counts every refusal or err as failed.
        notes, result = drive("serve_packed", 11, 64)
        self.assertClean(result)
        self.assertIn("admits 64, departs 64", note(notes, "admits"))

    def test_decomposition_matches_handle_line(self):
        # The traced run fails unless every replica response block and both
        # shard journals equal FleetService::HandleLine's, byte for byte, and
        # the replica's cache traffic equals the service's.
        for workload, ops in [("serve_churn", 600), ("serve_packed", 40)]:
            _, result = drive(workload, 5, ops, trace=1)
            self.assertClean(result)
            metrics = result["metrics"]
            self.assertGreaterEqual(metrics["layers.admit_coverage"]["value"], 0.90)
            self.assertGreater(metrics["rack.admit_us"]["value"], 0)
            self.assertEqual(metrics["topology.enumerate_ms"]["value"], 0)

    def test_decomposed_advice_matches_optimizer(self):
        _, result = drive("advise", 5, 3, trace=1)
        self.assertClean(result)
        self.assertGreater(result["metrics"]["topology.enumerate_ms"]["value"], 0)
        self.assertEqual(result["metrics"]["journal.append_us"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
