"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the harness (as perfbench/run.py does) and take about a
minute: the smoke test runs every workload once, traced and untraced.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class MetricNames(unittest.TestCase):
    def test_malformed_names_are_rejected(self):
        for bad in ["", "pass ms", "pass/ms", 'a"b', "_lead", ".x", "café",
                    "x{y}", "a" * 65, None]:
            self.assertFalse(run.valid_metric_name(bad), bad)
        for good in ["setup_s", "op_ms.p50", "sim.run_until.calls", "9-lives"]:
            self.assertTrue(run.valid_metric_name(good), good)
        with self.assertRaises(run.BenchError):
            run.check_names(["setup_s", "pass ms"], "a result document")

    def test_benchmark_json_names_are_valid_and_unique(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def test_selftest(self):
        proc = subprocess.run([str(run.HARNESS), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_smoke_prints_every_name(self):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = [json.loads(l) for l in proc.stdout.splitlines()
                 if l.startswith('{"correct"')]
        self.assertEqual(len(lines), 2 * len(self.spec["workloads"]))
        for i, line in enumerate(lines):
            wanted = self.spec["per_layer" if i % 2 else "end_to_end"]
            self.assertTrue(line["correct"])
            self.assertEqual(set(line["metrics"]), {m["name"] for m in wanted})
            for m in wanted:
                self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])

    def test_bad_arguments_are_refused(self):
        for args in (["--workload", "fleet", "--seed", "x1"],
                     ["--workload", "nope"],
                     ["--workload", "fleet", "--bogus"],
                     ["--workload", "fleet", "--trace", "2"],
                     ["--workload", "fleet", "--seconds", "-3"]):
            proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                                  capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "", args)
            self.assertIn("error", proc.stderr, args)


if __name__ == "__main__":
    unittest.main()
