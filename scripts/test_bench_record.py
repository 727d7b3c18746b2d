#!/usr/bin/env python3
"""Tests `bench_record.py --compare` on small synthetic records.

Run from the repository root:

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_record  # noqa: E402

DIGEST = "report_digest workload=w seed=7 cells=1 bytes=10 fnv1a64=0000000000000001"


def make_record(medians, digest=DIGEST, failed=0):
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": ""} for k, v in medians.items()},
    }
    return {
        "git": "test",
        "host_cores": 2,
        "workloads": {
            "w": {
                "trace0": {
                    "medians": dict(medians),
                    "report_digests": [digest],
                    "results": [result],
                }
            }
        },
    }


BASE = {"sim_req_per_s": 1000.0, "setup_s": 1.0, "peak_rss_mb": 10.0, "lab.build_ms": 1.0}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.benchmark = bench_record.load_benchmark()
        self.bound = {m["name"]: m["bound"] for m in self.benchmark["end_to_end"]}

    def marks(self, new_medians, **kw):
        _, marks = bench_record.compare(make_record(BASE), make_record(new_medians, **kw),
                                        self.benchmark)
        return {what for _, _, what in marks}

    def scaled(self, name, factor):
        return dict(BASE, **{name: BASE[name] * factor})

    def test_identical_records_mark_nothing_and_show_zero_deltas(self):
        lines, marks = bench_record.compare(make_record(BASE), make_record(BASE), self.benchmark)
        self.assertEqual(marks, [])
        self.assertEqual(sum("+0.0%" in line for line in lines), len(BASE))

    def test_regression_beyond_bound_is_marked(self):
        # Higher is better: a drop past the bound is a regression.
        drop = 1 - self.bound["sim_req_per_s"] - 0.05
        self.assertEqual(self.marks(self.scaled("sim_req_per_s", drop)), {"sim_req_per_s"})
        # Lower is better: a rise past the bound is a regression.
        rise = 1 + self.bound["peak_rss_mb"] + 0.05
        self.assertEqual(self.marks(self.scaled("peak_rss_mb", rise)), {"peak_rss_mb"})

    def test_improvement_and_in_bound_change_are_not_marked(self):
        self.assertEqual(self.marks(self.scaled("sim_req_per_s", 2.0)), set())
        self.assertEqual(self.marks(self.scaled("setup_s", 0.1)), set())
        within = 1 + self.bound["setup_s"] - 0.05
        self.assertEqual(self.marks(self.scaled("setup_s", within)), set())
        within = 1 - self.bound["sim_req_per_s"] + 0.05
        self.assertEqual(self.marks(self.scaled("sim_req_per_s", within)), set())

    def test_per_layer_metrics_are_never_marked(self):
        self.assertEqual(self.marks(self.scaled("lab.build_ms", 10.0)), set())

    def test_changed_report_digest_is_reported(self):
        other = DIGEST.replace("0001", "0002")
        lines, marks = bench_record.compare(make_record(BASE), make_record(BASE, digest=other),
                                            self.benchmark)
        self.assertEqual([what for _, _, what in marks], ["report_digest"])
        self.assertTrue(any(other in line for line in lines))

    def test_more_failures_are_marked(self):
        self.assertEqual(self.marks(BASE, failed=1), {"failed"})


if __name__ == "__main__":
    unittest.main()
