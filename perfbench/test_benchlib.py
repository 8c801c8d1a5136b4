"""Tests of the benchmark's own code:  python3 perfbench/test_benchlib.py"""

import copy
import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import run  # noqa: E402

SPEC_PATH = HERE.parent / "BENCHMARK.json"


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 100..1, unsorted on purpose
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.9), 90)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile(values, 0.0), 1)
        self.assertEqual(benchlib.percentile([7.5], 0.9), 7.5)

    def test_odd_count_median_is_middle_sample(self):
        self.assertEqual(benchlib.percentile([3, 1, 2], 0.5), 2)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 0.9), 10)
        self.assertEqual(benchlib.samples_beyond(99, 0.9), 9)
        self.assertEqual(benchlib.samples_beyond(108, 0.9), 10)
        self.assertEqual(benchlib.samples_beyond(0, 0.9), 0)

    def test_service_round_p90_has_ten_beyond(self):
        # A service-mixed round has 32 first-time submits and 720 repeats.
        self.assertGreaterEqual(benchlib.samples_beyond(32 + 720, 0.9), 10)
        self.assertLess(benchlib.samples_beyond(99, 0.9), 10)


class SpreadAndBoundTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / med)

    def test_lower_is_better(self):
        self.assertFalse(benchlib.regressed(100.0, 110.0, "lower", 0.1))
        self.assertTrue(benchlib.regressed(100.0, 110.01, "lower", 0.1))
        self.assertFalse(benchlib.regressed(100.0, 50.0, "lower", 0.1))

    def test_higher_is_better(self):
        self.assertFalse(benchlib.regressed(100.0, 90.0, "higher", 0.1))
        self.assertTrue(benchlib.regressed(100.0, 89.99, "higher", 0.1))
        self.assertFalse(benchlib.regressed(100.0, 200.0, "higher", 0.1))


class TallyTest(unittest.TestCase):
    def test_sums_parts(self):
        tally = benchlib.Tally()
        tally.add(30, 1)
        tally.add(30, 1)
        self.assertEqual((tally.attempted, tally.failed), (60, 2))
        self.assertAlmostEqual(tally.share(), 1 / 30)

    def test_share_is_the_same_for_whole_rounds(self):
        one, three = benchlib.Tally(), benchlib.Tally()
        one.add(30, 1)
        for _ in range(3):
            three.add(30, 1)
        self.assertEqual(one.share(), three.share())

    def test_rejects_impossible_counts(self):
        tally = benchlib.Tally()
        with self.assertRaises(ValueError):
            tally.add(3, 4)
        with self.assertRaises(ValueError):
            tally.add(3, -1)
        self.assertEqual(tally.share(), 0.0)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(SPEC_PATH.read_text())

    def test_repository_spec_loads(self):
        spec = benchlib.load_spec(SPEC_PATH)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["table1-cold", "tvd-sweep", "service-mixed"])
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]},
            {"setup_s", "compile_s", "geyser_pulses", "geyser_depth_pulses",
             "tvd_s", "latency_p50_ms", "latency_p90_ms", "jobs_per_s",
             "sweep_members_per_s", "peak_rss_mb"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_workloads_match_the_runner(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))

    def rejects(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        with self.assertRaises(benchlib.SpecError):
            benchlib.validate_spec(spec)

    def test_rejects_malformed_specs(self):
        self.rejects(lambda s: s.pop("paths"))
        self.rejects(lambda s: s.update(extra=1))
        self.rejects(lambda s: s.update(run_seconds=0))
        self.rejects(lambda s: s.update(run_seconds=61))
        self.rejects(lambda s: s["end_to_end"][1].update(bound=0.3))
        self.rejects(lambda s: s["end_to_end"][1].pop("bound"))
        self.rejects(lambda s: s["per_layer"][0].update(bound=0.1))
        self.rejects(lambda s: s["per_layer"][0].update(unit="m s"))
        self.rejects(lambda s: s["per_layer"][0].update(better="up"))
        self.rejects(lambda s: s["per_layer"].append(s["per_layer"][0]))
        self.rejects(lambda s: s["workloads"][0].update(why="a\nb"))
        self.rejects(lambda s: s.update(workloads=s["workloads"][:1]))
        self.rejects(lambda s: s["end_to_end"].pop(0))  # setup_s

    def test_missing_file(self):
        with self.assertRaises(benchlib.SpecError):
            benchlib.load_spec(HERE / "no-such-file.json")


class ReportTest(unittest.TestCase):
    spec = benchlib.load_spec(SPEC_PATH)

    def test_end_to_end_needs_every_metric(self):
        values = {m["name"]: 1.0 for m in self.spec["end_to_end"]}
        out = run.report(self.spec["end_to_end"], values, False)
        self.assertEqual(set(out), set(values))
        self.assertEqual(out["setup_s"], {"value": 1.0, "unit": "s"})
        values.pop("tvd_s")
        with self.assertRaises(run.BenchError):
            run.report(self.spec["end_to_end"], values, False)

    def test_per_layer_fills_unexercised_layers_with_zero(self):
        out = run.report(self.spec["per_layer"], {"sim.legacy_ms": 2.5}, True)
        self.assertEqual(len(out), len(self.spec["per_layer"]))
        self.assertEqual(out["sim.legacy_ms"]["value"], 2.5)
        self.assertEqual(out["fleet.rebound"]["value"], 0.0)

    def test_unknown_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.report(self.spec["per_layer"], {"no.such_metric": 1.0}, True)


if __name__ == "__main__":
    unittest.main()
