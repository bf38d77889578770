#!/usr/bin/env python3
"""Tests of the benchmark itself:

    python3 perfbench/test_perfbench.py

- perfbench_selftest: one seed builds a bit-identical world_step world and
  another seed a different one, the threaded world matches the serial
  one, and the p99 rule ("10 samples beyond it") is computed correctly;
- every metric a run prints, on every workload in both trace modes,
  matches BENCHMARK.json by name, unit and order;
- layers.json names every workload and per-layer metric of BENCHMARK.json
  and maps each per-layer metric onto metrics and workloads it defines.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.spec = bench.load_spec()

    def test_selftest(self):
        subprocess.run([bench.SELFTEST], check=True, timeout=300)

    def test_printed_metrics_match_benchmark_json(self):
        for workload in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(bench.HERE, "run.py"),
                         "--workload", workload["name"], "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True, timeout=300)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), bench.RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        [(n, m["unit"]) for n, m in result["metrics"].items()],
                        [(m["name"], m["unit"]) for m in self.spec[key]])

    def test_layer_map_covers_benchmark_json(self):
        with open(os.path.join(bench.HERE, "layers.json")) as f:
            layers = json.load(f)
        workloads = {w["name"] for w in self.spec["workloads"]}
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        self.assertEqual(set(layers["workloads"]), workloads)
        self.assertEqual(set(layers["per_layer"]),
                         {m["name"] for m in self.spec["per_layer"]})
        for name, entry in layers["per_layer"].items():
            for move in entry["moves"]:
                self.assertIn(move["metric"], end_to_end, name)
                self.assertIn(move["workload"], workloads, name)
            for workload in entry.get("unchanged_on", []):
                self.assertIn(workload, workloads, name)


if __name__ == "__main__":
    unittest.main()
