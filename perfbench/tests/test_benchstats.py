"""Self-tests of the benchmark's statistics and output schema.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchstats  # noqa: E402


def span(name, start, end, parent, epoch=1):
    return [name, start, end, parent, epoch]


def process_doc(traced, setup_s=1.0, peak_rss_mib=120.5):
    """A small pipeline_bench document with the fields run.py reads."""
    spans = []
    if traced:
        spans = [
            span("replay.pass", 0, 1000, -1),
            span("replay.epoch", 0, 1000, 0),
            span("ovs.steer", 0, 100, 1),
            span("core.update", 100, 400, 1),
            span("ovs.epoch.rotate", 400, 410, 1),
            span("query", 410, 910, 1),
            span("core.merge", 410, 510, 5),
            span("core.decode", 510, 700, 5),
            span("query.aggregate", 700, 900, 5),
            span("ovs.epoch.recycle", 910, 990, 1),
        ]
    passes = [
        {"traced": False, "scored": True, "cpu_s": 1.0, "packets": 1000,
         "ingest_cpu_s": 0.5, "epochs": 100, "updates": 1000, "pass1_misses": 100,
         "replacements": 50, "merge_slots": 400, "merge_conflicts": 40,
         "decode_rows": 3000, "aggregate_groups": 600,
         "query_ms": [float(i) for i in range(1, 101)]},
        {"traced": False, "scored": False, "cpu_s": 1.0, "packets": 1000,
         "ingest_cpu_s": 0.5, "epochs": 100, "updates": 1000, "pass1_misses": 100,
         "replacements": 50, "merge_slots": 400, "merge_conflicts": 40,
         "decode_rows": 3000, "aggregate_groups": 600,
         "query_ms": [float(i) for i in range(1, 101)]},
    ]
    if traced:
        passes.append(dict(passes[1], traced=True, cpu_s=1.25))
    return {
        "context": {"workload": "l2-ingest"},
        "setup": {"setup_s": setup_s, "generate_s": 0.5, "truth_s": 1.0,
                  "construct_s": 0.0},
        "threaded": {"hh_f1": 0.9, "hh_are": 0.05, "calls": [
            {"wall_s": 2.0, "reported_mpps": 2.0, "packets": 2_000_000,
             "epochs": 10, "rotation_refusals": 0},
            {"wall_s": 1.0, "reported_mpps": 4.0, "packets": 2_000_000,
             "epochs": 12, "rotation_refusals": 1},
            {"wall_s": 4.0, "reported_mpps": 1.0, "packets": 2_000_000,
             "epochs": 14, "rotation_refusals": 2},
        ]},
        "replay": {"hh_f1": 0.95, "hh_are": 0.04, "passes": passes},
        "spans": spans,
        "checks": {"a": [10, 0], "b": [5, 1]},
        "failures": ["b: detail"],
        "peak_rss_mib": peak_rss_mib,
    }


def pooled(traced):
    """Three processes of one run, as run.py pools them."""
    return benchstats.combine([
        process_doc(traced, setup_s=3.0),
        process_doc(traced, setup_s=1.0, peak_rss_mib=130.0),
        process_doc(traced, setup_s=2.0),
    ])


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(benchstats.percentile(samples, 50), 50)
        self.assertEqual(benchstats.percentile(samples, 90), 90)
        self.assertEqual(benchstats.percentile(samples, 100), 100)
        self.assertEqual(benchstats.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            benchstats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(benchstats.samples_beyond(100, 90), 10)
        self.assertEqual(benchstats.samples_beyond(99, 90), 9)
        self.assertEqual(benchstats.samples_beyond(1000, 99), 10)

    def test_highest_percentile_with_ten_beyond(self):
        cases = {
            19: None,   # the median has only 9 samples beyond it
            20: 50.0,
            99: 50.0,   # p90 would have 9 beyond
            100: 90.0,
            999: 90.0,
            1000: 99.0,
            10_000: 99.9,
        }
        for n, expected in cases.items():
            with self.subTest(n=n):
                self.assertEqual(benchstats.highest_supported_percentile(n),
                                 expected)


class SelfTime(unittest.TestCase):
    def test_leaf_and_nested(self):
        spans = [
            span("root", 0, 100, -1),
            span("a", 10, 30, 0),
            span("b", 40, 90, 0),
            span("b.child", 50, 60, 2),
        ]
        self.assertEqual(benchstats.self_times(spans), [30, 20, 40, 10])

    def test_overlapping_children_count_once(self):
        spans = [
            span("root", 0, 100, -1),
            span("a", 10, 50, 0),
            span("b", 40, 60, 0),
        ]
        self.assertEqual(benchstats.self_times(spans)[0], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 10, 20, -1), span("a", 0, 15, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 5)

    def test_by_name_sums_every_span_of_a_name(self):
        spans = [
            span("root", 0, 100, -1),
            span("x", 0, 10, 0),
            span("x", 20, 25, 0),
        ]
        self.assertEqual(benchstats.self_time_by_name(spans),
                         {"root": 85, "x": 15})

    def test_self_times_add_up_to_the_roots(self):
        own = benchstats.self_times(pooled(traced=True)["spans"])
        self.assertEqual(sum(own), 3000)

    def test_reconcile(self):
        shares = benchstats.reconcile(pooled(traced=True)["spans"])
        # Layers cover 1000 - 10 (gap 990..1000) - 0 of the pass wall; the
        # query children cover 490 of the 500 query nanoseconds.
        self.assertAlmostEqual(shares["layers_share"], 0.99)
        self.assertAlmostEqual(shares["query_share"], 0.98)


class Combine(unittest.TestCase):
    def test_pools_processes(self):
        raw = pooled(traced=True)
        self.assertEqual(raw["context"]["processes"], 3)
        self.assertEqual(raw["setup"]["setup_s"], [3.0, 1.0, 2.0])
        self.assertEqual(len(raw["threaded"]["calls"]), 9)
        self.assertEqual(len(raw["replay"]["passes"]), 9)
        self.assertEqual(raw["checks"], {"a": [30, 0], "b": [15, 3]})
        self.assertEqual(len(raw["failures"]), 3)
        self.assertEqual(raw["peak_rss_mib"], 130.0)

    def test_reindexes_span_parents(self):
        raw = pooled(traced=True)
        per_doc = len(process_doc(True)["spans"])
        second = raw["spans"][per_doc:2 * per_doc]
        self.assertEqual(second[0][3], -1)
        self.assertEqual(second[1][3], per_doc)
        self.assertEqual(second[6][3], per_doc + 5)  # core.merge -> query


class OutputSchema(unittest.TestCase):
    def test_end_to_end(self):
        metrics, facts = benchstats.end_to_end_metrics(pooled(False))
        self.assertEqual(set(metrics), set(benchstats.END_TO_END))
        self.assertAlmostEqual(metrics["replay_ingest_mpps"]["value"], 0.002)
        self.assertAlmostEqual(benchstats.threaded_ingest_mpps(pooled(False)), 1.0)
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        self.assertEqual(metrics["query_ms.p50"]["value"], 50.0)
        self.assertEqual(metrics["query_ms.p90"]["value"], 90.0)
        self.assertEqual(metrics["peak_rss_mib"]["value"], 130.0)
        self.assertEqual(facts["query_samples"], 600)
        self.assertEqual(facts["query_samples_per_process_min"], 200)
        self.assertEqual(facts["highest_percentile"], 90.0)
        attempted, failed = benchstats.check_counts(
            pooled(False), [("extra", True)])
        self.assertEqual((attempted, failed), (46, 3))
        line = benchstats.result_line(failed == 0, attempted, failed, metrics)
        benchstats.validate_result(line, benchstats.END_TO_END)
        # The printed line survives a JSON round trip unchanged.
        self.assertEqual(json.loads(json.dumps(line)), line)

    def test_one_slow_process_does_not_move_the_timings(self):
        slow = process_doc(False)
        for p in slow["replay"]["passes"]:
            p["query_ms"] = [3 * q for q in p["query_ms"]]
            p["ingest_cpu_s"] *= 3
        for c in slow["threaded"]["calls"]:
            c["wall_s"] *= 3
        raw = benchstats.combine([process_doc(False), slow, process_doc(False)])
        metrics, _ = benchstats.end_to_end_metrics(raw)
        self.assertEqual(metrics["query_ms.p50"]["value"], 50.0)
        self.assertEqual(metrics["query_ms.p90"]["value"], 90.0)
        self.assertAlmostEqual(metrics["replay_ingest_mpps"]["value"], 0.002)
        self.assertAlmostEqual(benchstats.threaded_ingest_mpps(raw), 1.0)

    def test_per_layer(self):
        metrics, _ = benchstats.per_layer_metrics(pooled(True))
        self.assertEqual(set(metrics), set(benchstats.PER_LAYER))
        self.assertAlmostEqual(metrics["trace.overhead_ratio"]["value"], 0.8)
        self.assertAlmostEqual(metrics["ovs.scaleout.outside_ms"]["value"], 1000.0)
        self.assertAlmostEqual(metrics["core.update.ns_per_pkt"]["value"], 0.3)
        self.assertAlmostEqual(metrics["core.merge.conflict_ratio"]["value"], 0.1)
        benchstats.validate_result(
            benchstats.result_line(True, 1, 0, metrics), benchstats.PER_LAYER)

    def test_validate_rejects_malformed_lines(self):
        good = benchstats.result_line(
            True, 3, 0, {"hh_f1": {"value": 0.5, "unit": "ratio"}})
        benchstats.validate_result(good, ["hh_f1"])
        bad = [
            {k: v for k, v in good.items() if k != "failed"},
            dict(good, extra=1),
            dict(good, attempted=0),
            dict(good, attempted=True),
            dict(good, failed=4),
            dict(good, correct="yes"),
            dict(good, metrics={}),
            dict(good, metrics={"hh_f1": {"value": math.nan, "unit": "ratio"}}),
            dict(good, metrics={"hh_f1": {"value": "1", "unit": "ratio"}}),
            dict(good, metrics={"hh_f1": {"value": 1.0}}),
        ]
        for line in bad:
            with self.subTest(line=line):
                with self.assertRaises(ValueError):
                    benchstats.validate_result(line, ["hh_f1"])

    def test_declared_metrics_match_the_benchmark_file(self):
        declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]},
            benchstats.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["per_layer"]},
            benchstats.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
