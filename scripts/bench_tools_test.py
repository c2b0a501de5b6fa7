#!/usr/bin/env python3
"""Tests for record_bench.py and bench_diff.py on canned perfbench output.

    python3 scripts/bench_tools_test.py

No benchmark runs: records are built from synthetic perfbench result lines.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import record_bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
HOST = {"cores": 4, "cpu_model": "Test CPU", "compiler": "gcc 12.2.0",
        "build_type": "release"}


def perfbench_stdout(metrics, correct=True, attempted=3, failed=0):
    """What perfbench prints: provenance, a memory line, the JSON result."""
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return ("provenance: " + json.dumps(HOST) + "\n"
            "memory: peak rss 1 B, budget 1 B\n" + json.dumps(result) + "\n")


def side_with(values, failed_seeds=()):
    """A record_bench side whose untraced run at seed s reads values(s) on
    every end-to-end metric; runs at failed_seeds fail their check."""
    side = types.SimpleNamespace(spec=SPEC, host=HOST, benchmark_hash="b" * 64,
                                 identity={"rev": "0" * 40, "dirty": False,
                                           "src_hash": "s" * 64},
                                 results={})
    for w in SPEC["workloads"]:
        for seed in record_bench.SEEDS:
            metrics = {m["name"]: values(seed) for m in SPEC["end_to_end"]}
            bad = seed in failed_seeds
            side.results[(w["name"], seed, 0)] = record_bench.parse_output(
                perfbench_stdout(metrics, correct=not bad, failed=int(bad)))
        traced = {m["name"]: 1.0 for m in SPEC["per_layer"]}
        side.results[(w["name"], 1, 1)] = record_bench.parse_output(perfbench_stdout(traced))
    return side


class Aggregation(unittest.TestCase):
    def test_median_quartiles_spread(self):
        s = record_bench.summarize([float(v) for v in range(1, 11)])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (3.25, 5.5, 7.75))
        self.assertAlmostEqual(s["spread"], 4.5 / 5.5)

    def test_failed_runs_add_nothing(self):
        self.assertEqual(record_bench.summarize([None, 2.0, None, 4.0, 6.0])["median"], 4.0)
        self.assertEqual(record_bench.summarize([7.0])["spread"], 0.0)

    def test_parse_output(self):
        r = record_bench.parse_output(perfbench_stdout({"events_per_s": 5.0}))
        self.assertTrue(r["correct"])
        self.assertEqual(r["host"], HOST)
        self.assertEqual(r["metrics"]["events_per_s"]["value"], 5.0)
        self.assertIsNone(record_bench.parse_output("provenance: {}\nbuild failed\n"))

    def test_record_shape(self):
        rec = record_bench.make_record(side_with(float, failed_seeds=(3,)))
        self.assertEqual(rec["host"], HOST)
        self.assertEqual(rec["seeds"], list(range(1, 11)))
        self.assertEqual(rec["run_seconds"], SPEC["run_seconds"])
        w = rec["workloads"]["online-churn"]
        e = w["end_to_end"]["events_per_s"]
        self.assertEqual(e["values"][2], None)
        self.assertEqual(e["median"], 6.0)  # 1, 2, 4..10
        self.assertEqual(e["bound"], 0.25)
        self.assertEqual(set(w["end_to_end"]), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(w["per_layer"]["core.observe_ns"], 1.0)
        self.assertEqual((w["attempted"], w["failed"]), (33, 1))


class AB(unittest.TestCase):
    def test_wins_ignore_ties_and_failed_pairs(self):
        self.assertEqual(record_bench.wins([1, 2, 3, 4], [2, 2, None, 3], "higher"), 1)
        self.assertEqual(record_bench.wins([1, 2, 3, 4], [2, 2, None, 3], "lower"), 1)

    def test_gain(self):
        parent = [100.0 + i for i in range(10)]
        change = [v + 20 for v in parent]
        self.assertEqual(record_bench.verdict(parent, change, "higher", 0.25), "gain")
        self.assertEqual(record_bench.verdict(change, parent, "lower", 0.25), "gain")

    def test_nine_wins_but_gap_inside_parent_iqr_is_no_change(self):
        parent = [100.0 + 2 * i for i in range(10)]
        change = [v + 1 for v in parent]
        self.assertEqual(record_bench.verdict(parent, change, "higher", 0.25), "no change")

    def test_regression(self):
        parent = [100.0] * 10
        self.assertEqual(record_bench.verdict(parent, [70.0] * 10, "higher", 0.25),
                         "regression")
        self.assertEqual(record_bench.verdict(parent, [130.0] * 10, "lower", 0.25),
                         "regression")

    def test_unresolved(self):
        parent = [60.0, 140.0] * 5
        change = [140.0, 60.0] * 5
        self.assertEqual(record_bench.verdict(parent, change, "higher", 0.25), "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        parent = [10.0, 12.0, 14.0, 16.0, 18.0] * 2
        change = [19.0, 21.0, 23.0, 25.0, 27.0] * 2
        self.assertGreater(record_bench.summarize(parent)["spread"], 0.25)
        self.assertNotEqual(record_bench.verdict(parent, change, "higher", 0.25),
                            "unresolved")

    def test_identical_runs_are_no_change(self):
        same = [0.01 * i + 1 for i in range(10)]
        self.assertEqual(record_bench.verdict(same, list(same), "lower", 0.25), "no change")


class BenchDiff(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = record_bench.make_record(side_with(lambda s: 100.0 + s))

    def tearDown(self):
        self.tmp.cleanup()

    def diff(self, old, new):
        paths = []
        for name, rec in (("old.json", old), ("new.json", new)):
            path = rec if isinstance(rec, str) else os.path.join(self.tmp.name, name)
            if not isinstance(rec, str):
                with open(path, "w") as f:
                    json.dump(rec, f)
            paths.append(path)
        return subprocess.run([sys.executable, os.path.join(HERE, "bench_diff.py")] + paths,
                              capture_output=True, text=True).returncode

    def test_identical_records_pass(self):
        self.assertEqual(self.diff(self.base, copy.deepcopy(self.base)), 0)

    def test_identity_is_not_compared(self):
        other = copy.deepcopy(self.base)
        other["identity"] = {"rev": "1" * 40, "dirty": True, "src_hash": "t" * 64}
        self.assertEqual(self.diff(self.base, other), 0)

    def test_events_per_s_drop_of_30_percent_fails(self):
        worse = copy.deepcopy(self.base)
        e = worse["workloads"]["serve-churn"]["end_to_end"]["events_per_s"]
        for k in ("median", "q1", "q3"):
            e[k] *= 0.7
        self.assertEqual(self.diff(self.base, worse), 1)
        self.assertEqual(self.diff(worse, self.base), 0)

    def test_rise_in_failed_share_fails(self):
        worse = copy.deepcopy(self.base)
        worse["workloads"]["online-churn"]["failed"] = 1
        self.assertEqual(self.diff(self.base, worse), 1)

    def test_missing_metric_fails(self):
        worse = copy.deepcopy(self.base)
        del worse["workloads"]["replay-planetlab"]["end_to_end"]["setup_s"]
        self.assertEqual(self.diff(self.base, worse), 1)

    def test_section_shaped_record_exits_2(self):
        self.assertEqual(self.diff(os.path.join(ROOT, "BENCH_pr10.json"), self.base), 2)
        self.assertEqual(self.diff(self.base, os.path.join(ROOT, "BENCH_pr10.json")), 2)

    def test_differing_provenance_exits_2(self):
        other = copy.deepcopy(self.base)
        other["host"]["cores"] = 1
        self.assertEqual(self.diff(self.base, other), 2)
        other = copy.deepcopy(self.base)
        other["run_seconds"] = 5
        self.assertEqual(self.diff(self.base, other), 2)

    def test_differing_benchmark_hash_exits_2(self):
        other = copy.deepcopy(self.base)
        other["benchmark_hash"] = "c" * 64
        self.assertEqual(self.diff(self.base, other), 2)


if __name__ == "__main__":
    unittest.main()
