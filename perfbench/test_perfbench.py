"""Self-tests of the benchmark's arithmetic (no build needed):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def span(op, id_, parent, name, start, end):
    return {"kind": "span", "op": op, "id": id_, "parent": parent,
            "name": name, "start": start, "end": end}


def part(op, id_, parent, name, seconds, calls=1):
    return {"kind": "part", "op": op, "id": id_, "parent": parent,
            "name": name, "seconds": seconds, "calls": calls}


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, n = metrics.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_order_does_not_matter(self):
        xs = list(range(1, 41))
        self.assertEqual(metrics.tail(xs[::-1]), metrics.tail(xs))
        self.assertEqual(metrics.tail(xs)[:2], (30, 75.0))

    def test_exactly_twice_beyond_is_the_median_rank(self):
        self.assertEqual(metrics.tail(list(range(1, 21)))[:2], (10, 50.0))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0, 5.0])[:2], (2.5, 50.0))
        self.assertEqual(metrics.tail(list(range(1, 20)))[:2], (10, 50.0))


class SelfTimes(unittest.TestCase):
    def test_children_and_parts_are_subtracted(self):
        recs = [span(0, 0, -1, "op", 0.0, 10.0),
                span(0, 1, 0, "solver.pcg", 1.0, 9.0),
                span(0, 2, 1, "sptrsv.apply", 2.0, 4.0),
                span(0, 3, 1, "sptrsv.apply", 5.0, 6.0),
                part(0, 4, 1, "sparse.spmv", 1.5, calls=3)]
        st = metrics.self_times(recs)[0]
        self.assertAlmostEqual(st["op"][0], 2.0)
        self.assertAlmostEqual(st["solver.pcg"][0], 8.0 - 3.0 - 1.5)
        self.assertAlmostEqual(st["solver.pcg"][1], 8.0)
        self.assertEqual(st["sptrsv.apply"], [3.0, 3.0, 2])
        self.assertEqual(st["sparse.spmv"], [1.5, 1.5, 3])
        self.assertAlmostEqual(st["@coverage"][0], 0.8)

    def test_overlapping_children_count_once_and_are_clipped(self):
        recs = [span(0, 0, -1, "op", 0.0, 10.0),
                span(0, 1, 0, "a", 1.0, 5.0),
                span(0, 2, 0, "b", 3.0, 7.0),
                span(0, 3, 0, "c", 9.0, 12.0)]
        st = metrics.self_times(recs)[0]
        self.assertAlmostEqual(st["op"][0], 10.0 - 6.0 - 1.0)

    def test_parts_nest_under_parts(self):
        recs = [span(0, 0, -1, "op", 0.0, 4.0),
                part(0, 1, 0, "runtime.queue_wait", 0.5),
                part(0, 2, 0, "solver.pcg", 3.0),
                part(0, 3, 2, "sptrsv.apply", 1.5, calls=10)]
        st = metrics.self_times(recs)[0]
        self.assertAlmostEqual(st["solver.pcg"][0], 1.5)
        self.assertAlmostEqual(st["op"][0], 0.5)
        self.assertAlmostEqual(st["@coverage"][0], 0.875)

    def test_ops_are_kept_apart(self):
        recs = [span(0, 0, -1, "op", 0.0, 1.0),
                span(1, 1, -1, "op", 5.0, 7.0),
                span(1, 2, 1, "x", 5.0, 6.0)]
        st = metrics.self_times(recs)
        self.assertAlmostEqual(st[0]["op"][0], 1.0)
        self.assertAlmostEqual(st[1]["op"][0], 1.0)
        self.assertNotIn("x", st[0])


class Verdicts(unittest.TestCase):
    PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    def test_clear_gain_is_better(self):
        change = [x * 0.8 for x in self.PARENT]
        v = metrics.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "better")
        self.assertEqual(v["win_frac"], 1.0)

    def test_higher_is_better_direction(self):
        change = [x * 1.2 for x in self.PARENT]
        self.assertEqual(
            metrics.verdict(self.PARENT, change, "higher", 0.1)["verdict"],
            "better")
        self.assertEqual(
            metrics.verdict(self.PARENT, change, "lower", 0.1)["verdict"],
            "worse")

    def test_within_bound_is_unchanged(self):
        change = [x * 1.03 for x in self.PARENT]
        self.assertEqual(
            metrics.verdict(self.PARENT, change, "lower", 0.1)["verdict"],
            "unchanged")

    def test_beyond_bound_is_worse(self):
        change = [x * 1.15 for x in self.PARENT]
        v = metrics.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "worse")
        self.assertAlmostEqual(v["worse_by"], 0.15)

    def test_noisy_parent_is_unresolved(self):
        parent = [1.0, 1.4, 0.8, 1.2, 0.9, 1.3, 0.7, 1.1, 1.0, 1.2]
        change = [x * 1.02 for x in parent]
        self.assertEqual(
            metrics.verdict(parent, change, "lower", 0.1)["verdict"],
            "unresolved")

    def test_noisy_but_every_change_run_better(self):
        parent = [2.0, 2.8, 1.6, 2.4, 1.8, 2.6, 1.5, 2.2, 2.0, 2.4]
        change = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0]
        self.assertEqual(
            metrics.verdict(parent, change, "lower", 0.1)["verdict"],
            "better")

    def test_ties_count_for_neither(self):
        v = metrics.verdict(self.PARENT, list(self.PARENT), "lower", 0.1)
        self.assertLess(v["win_frac"], 0.5)
        self.assertEqual(v["verdict"], "unchanged")


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            metrics.PER_LAYER)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(set(names), set(metrics.ALIASES))


if __name__ == "__main__":
    unittest.main()
