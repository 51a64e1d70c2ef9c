#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

Percentile selection, span self-time arithmetic and the CPU-steal
filter are tested here; the content hash is tested by `pbtool
selftest`, which this file builds (Release, under $CARGO_TARGET_DIR or
.bench_build) and runs.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200, shuffled below
        values = values[::2] + values[1::2]
        self.assertEqual(run.percentile(values, 50), 100)
        self.assertEqual(run.percentile(values, 95), 190)
        self.assertEqual(run.percentile(values, 100), 200)
        self.assertEqual(run.percentile([7.5], 95), 7.5)

    def test_ten_samples_beyond_p95(self):
        # p95 is reportable from 200 samples on: 10 lie above it.
        self.assertEqual(run.samples_beyond(200, 95), 10)
        self.assertEqual(run.samples_beyond(199, 95), 9)
        values = [float(i) for i in range(1000)]
        p95 = run.percentile(values, 95)
        self.assertEqual(sum(v > p95 for v in values),
                         run.samples_beyond(len(values), 95))
        self.assertGreaterEqual(run.samples_beyond(len(values), 95), 10)

    def test_empty(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        spans = [["root", 0, 100, -1, 1],
                 ["a", 10, 30, 0, 1],
                 ["b", 50, 60, 0, 1]]
        self.assertEqual(run.self_times(spans),
                         [("root", 70), ("a", 20), ("b", 10)])

    def test_overlapping_children_count_once(self):
        spans = [["root", 0, 100, -1, 1],
                 ["a", 10, 40, 0, 1],
                 ["b", 30, 50, 0, 1],
                 ["c", 45, 46, 0, 1]]
        self.assertEqual(run.self_times(spans)[0], ("root", 60))

    def test_child_clipped_to_parent(self):
        spans = [["root", 10, 20, -1, 1],
                 ["late", 15, 40, 0, 1],
                 ["outside", 30, 35, 0, 1]]
        self.assertEqual(run.self_times(spans)[0], ("root", 5))

    def test_grandchildren_only_charge_their_parent(self):
        spans = [["root", 0, 100, -1, 7],
                 ["child", 0, 50, 0, 7],
                 ["grandchild", 0, 40, 1, 7]]
        self.assertEqual(run.self_times(spans),
                         [("root", 50), ("child", 10),
                          ("grandchild", 40)])


class Steal(unittest.TestCase):
    def test_reads_in_clean_slices_only(self):
        window = {"steal": [[0, 250, 0.5], [250, 500, 20.0],
                            [500, 750, 1.0]],
                  "latency_ms": [1.0, 2.0, 9.0, 3.0],
                  "done_ms": [100, 240, 400, 600]}
        self.assertEqual(run.clean_reads(window), ([1.0, 2.0, 3.0], 0.5))

    def test_least_stolen_third_when_few_are_clean(self):
        samples = [(1.0, 12.0), (2.0, 5.0), (3.0, 30.0), (4.0, 8.0),
                   (5.0, 9.0), (6.0, 4.0)]
        self.assertEqual(run.least_stolen(samples), [(6.0, 4.0), (2.0, 5.0)])
        self.assertEqual(run.clean_median(samples), 4.0)
        self.assertEqual(run.clean_median([(1.0, 0.0), (5.0, 50.0),
                                           (2.0, 1.0)]), 1.5)


class ContentHash(unittest.TestCase):
    def test_pbtool_selftest(self):
        _, pbtool = run.build(run.build_dir())
        out = subprocess.run([pbtool, "selftest"], stdout=subprocess.PIPE,
                             text=True)
        sys.stderr.write(out.stdout)
        self.assertEqual(out.returncode, 0)
        self.assertIn("ok  : one changed string byte", out.stdout)


if __name__ == "__main__":
    unittest.main()
