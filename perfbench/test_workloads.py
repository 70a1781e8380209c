#!/usr/bin/env python3
"""The benchmark's own test: the request generator is deterministic and its
known-answer oracle covers every outcome kind.

  python3 perfbench/test_workloads.py

Builds fo2dt_perf the way run.py does, then checks that
  * the same (workload, seed) yields byte-identical request lines, a
    different seed different ones, and a shorter stream is a prefix of a
    longer one;
  * across the three workloads every outcome kind occurs: SAT, UNSAT,
    UNKNOWN (an exhausted bound), ACCEPT and REJECT.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("serve_mixed", "keyfk_cold", "bounded_search")


def generate(perf, workload, seed, count):
    return subprocess.run([perf, "gen", "--workload", workload, "--seed",
                           str(seed), "--count", str(count)],
                          check=True, capture_output=True, cwd=run.ROOT).stdout


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
        _, cls.perf, _ = run.build(build_dir)

    def test_same_seed_same_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = generate(self.perf, workload, 7, 300)
                self.assertEqual(first, generate(self.perf, workload, 7, 300))
                self.assertNotEqual(first, generate(self.perf, workload, 8, 300))
                self.assertTrue(first.startswith(
                    generate(self.perf, workload, 7, 100)))

    def test_every_outcome_kind_occurs(self):
        kinds = set()
        for workload in WORKLOADS:
            for line in generate(self.perf, workload, 1, 300).decode().splitlines():
                kinds.add(line.split("\t")[2])
        self.assertEqual(kinds, {"SAT", "UNSAT", "UNKNOWN", "ACCEPT", "REJECT"})


if __name__ == "__main__":
    unittest.main()
