"""Smoke test of the benchmark at its tiny size.

Checks that every metric BENCHMARK.json declares is emitted, with its unit,
on every workload in both modes, and that a forced output-digest mismatch
between two runs of one seed is reported as a failed, incorrect run.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--size", "tiny", "--seconds", "0",
         "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_bench("--workload", workload, "--trace", trace)
                    self.assertEqual(code, 0, result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[group]},
                    )

    def test_forced_digest_mismatch_fails_the_run(self):
        code, result = run_bench("--workload", "overload", "--trace", "0", "--inject-mismatch")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
