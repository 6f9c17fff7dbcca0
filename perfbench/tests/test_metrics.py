"""Unit tests of the benchmark's arithmetic and output shape (no build).

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import metrics  # noqa: E402


def span(sample, parent, name, start, end, arg=0):
    return [sample, parent, name, start, end, arg]


def raw_document(failures=("", "", ""), traced=(0, 0, 0)):
    """A minimal driver document: three ALTER samples, three sequential."""
    n = len(failures)
    return {
        "host": {"workload": "gsdense", "input": 1, "input_name": "x",
                 "seed": 1, "workers": 3},
        "setup_failure": "",
        "seq_failure": "",
        "setup_ns": [3e9, 1e9, 2e9],
        "setup_steal_share": [0.0, 0.0, 0.0],
        "alter": {
            "wall_ns": [10e6, 30e6, 20e6][:n],
            "cpu_ns": [40e6, 60e6, 50e6][:n],
            "setup_ns": [1e6] * n,
            "validate_ns": [2e6] * n,
            "traced": list(traced),
            "steal_share": [0.0] * n,
            "replayed": [0] * n,
            "failure": list(failures),
            "schedule": ["chunked"] * n,
        },
        "seq": {"wall_ns": [4e6, 6e6, 5e6], "loop_ns": [3e6, 3e6, 3e6],
                "steal_share": [0.0, 0.0, 0.0]},
        "max_steal_share": 0.05,
        "peak_rss_kb": {"self": 2048, "children": 1024},
        "null_invocation_ns": [],
        "probe_one_ns": [metrics.PROBE_ONE_REFERENCE_NS] * 3,
        "probe_all_ns": [metrics.PROBE_ALL_REFERENCE_NS] * 3,
        "invocations": [],
        "replays": [],
        "seq_chunks": [],
        "spans": [],
    }


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span(0, -1, "root", 0, 100),
            span(0, 0, "a", 10, 30),
            span(0, 0, "b", 20, 50),   # overlaps a: union is [10, 50)
            span(0, 2, "c", 25, 45),   # grandchild: only b's self shrinks
            span(0, 0, "d", 90, 120),  # clipped to the parent's end
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs["root"], [100 - 40 - 10])
        self.assertEqual(selfs["a"], [20])
        self.assertEqual(selfs["b"], [30 - 20])
        self.assertEqual(selfs["c"], [20])
        self.assertEqual(selfs["d"], [30])

    def test_groups_by_name(self):
        spans = [span(0, -1, "s", 0, 10), span(1, -1, "s", 20, 25)]
        self.assertEqual(metrics.self_times(spans), {"s": [10, 5]})


class FailureCounting(unittest.TestCase):
    def test_every_failed_sample_counts(self):
        raw = raw_document(failures=("validation", "", "status crash"))
        line = metrics.result_line(raw, trace=0)
        self.assertEqual((line["attempted"], line["failed"]), (3, 2))
        self.assertFalse(line["correct"])
        values = metrics.end_to_end(raw)
        self.assertAlmostEqual(values["fail_frac"][0], 2 / 3)
        # Timings come from the passing samples only.
        self.assertEqual(values["wall_ms_p50"][0], 30.0)

    def test_clean_run_is_correct(self):
        line = metrics.result_line(raw_document(), trace=0)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)

    def test_broken_reference_is_incorrect(self):
        raw = raw_document()
        raw["seq_failure"] = "the sequential run failed validation"
        self.assertFalse(metrics.result_line(raw, trace=0)["correct"])


class EndToEnd(unittest.TestCase):
    def test_values(self):
        values = metrics.end_to_end(raw_document())
        self.assertEqual(values["setup_s"], (2.0, "s", 3))
        self.assertEqual(values["wall_ms_p50"], (20.0, "ms", 3))
        self.assertEqual(values["wall_ms_p90"][0], 30.0)
        self.assertEqual(values["seq_ms_p50"][0], 5.0)
        self.assertEqual(values["cpu_ms_p50"][0], 50.0)
        self.assertEqual(values["peak_rss_mb"][0], 2.0)
        self.assertEqual(values["speedup_p50"][0], 0.25)

    def test_timings_follow_the_host_probe(self):
        raw = raw_document()
        # A host half as fast on one thread and a third as fast with every
        # CPU busy: each probe and the samples it stands for take that much
        # longer, and the normalised timings stay where they were.
        raw["probe_one_ns"] = [2 * metrics.PROBE_ONE_REFERENCE_NS] * 3
        raw["probe_all_ns"] = [3 * metrics.PROBE_ALL_REFERENCE_NS] * 3
        for k in ("wall_ns", "cpu_ns"):
            raw["alter"][k] = [3 * v for v in raw["alter"][k]]
        raw["seq"]["wall_ns"] = [2 * v for v in raw["seq"]["wall_ns"]]
        raw["setup_ns"] = [2 * v for v in raw["setup_ns"]]
        values = metrics.end_to_end(raw)
        self.assertEqual(values["host_scale_one"][0], 0.5)
        self.assertAlmostEqual(values["host_scale_all"][0], 1 / 3)
        self.assertEqual(values["host_probe_one_ms"][0],
                         2 * metrics.PROBE_ONE_REFERENCE_NS / 1e6)
        self.assertAlmostEqual(values["setup_s"][0], 2.0)
        self.assertAlmostEqual(values["wall_ms_p50"][0], 20.0)
        self.assertAlmostEqual(values["wall_ms_p90"][0], 30.0)
        self.assertAlmostEqual(values["seq_ms_p50"][0], 5.0)
        self.assertAlmostEqual(values["cpu_ms_p50"][0], 50.0)
        # A slower program on the same host reads slower by the same share.
        raw["alter"]["wall_ns"] = [1.5 * v for v in raw["alter"]["wall_ns"]]
        self.assertAlmostEqual(metrics.end_to_end(raw)["wall_ms_p50"][0],
                               30.0)
        # Memory is not scaled.
        self.assertEqual(values["peak_rss_mb"][0], 2.0)

    def test_traced_samples_are_excluded(self):
        raw = raw_document(traced=(0, 0, 1))
        self.assertEqual(metrics.end_to_end(raw)["wall_ms_p50"][0], 20.0)


class HostDisturbance(unittest.TestCase):
    def test_disturbed_samples_leave_the_timings(self):
        n = metrics.MIN_UNDISTURBED + 5
        raw = raw_document(failures=[""] * n, traced=[0] * n)
        a = raw["alter"]
        a["wall_ns"] = [10e6] * n
        a["cpu_ns"] = [1e6] * n
        for i in range(5):
            a["wall_ns"][i] = 99e6
            a["steal_share"][i] = 0.2
        values = metrics.end_to_end(raw)
        self.assertEqual(values["wall_ms_p90"][0], 10.0)
        self.assertEqual(values["wall_ms_p50"][2], n - 5)
        self.assertEqual(sum(metrics.disturbed(a, raw)), 5)
        # Set-ups are filtered the same way, down to a smaller floor.
        raw["setup_ns"] = [3e9, 1e9, 2e9, 9e9]
        raw["setup_steal_share"] = [0.0, 0.0, 0.0, 0.3]
        self.assertEqual(metrics.end_to_end(raw)["setup_s"], (2.0, "s", 3))
        # Failures still count every attempted run.
        self.assertEqual(metrics.failures(raw), (n, 0))

    def test_wall_and_setup_are_corrected_for_steal(self):
        m = metrics.MIN_UNDISTURBED
        raw = raw_document(failures=[""] * m, traced=[0] * m)
        a = raw["alter"]
        # Every sample lost a fifth of the capacity and took 25% longer.
        a["wall_ns"] = [12.5e6] * m
        a["cpu_ns"] = [40e6] * m
        a["steal_share"] = [0.2] * m
        raw["setup_ns"] = [2.5e9] * 3
        raw["setup_steal_share"] = [0.2] * 3
        values = metrics.end_to_end(raw)
        self.assertAlmostEqual(values["wall_ms_p50"][0], 10.0)
        self.assertAlmostEqual(values["wall_ms_p90"][0], 10.0)
        self.assertAlmostEqual(values["setup_s"][0], 2.0)
        # Stolen time is not charged as CPU time, and is left alone there.
        self.assertAlmostEqual(values["cpu_ms_p50"][0], 40.0)

    def test_mostly_disturbed_run_keeps_the_least_disturbed(self):
        m = metrics.MIN_UNDISTURBED
        share = [0.5] * 5 + [0.1] * (m - 1) + [0.0]
        timed = metrics.timed_samples(range(len(share)), share, 0.05)
        self.assertEqual(timed, list(range(5, 5 + m)))
        # With fewer candidates than that, all of them.
        self.assertEqual(metrics.timed_samples([0, 1], share, 0.05), [0, 1])


class OutputShape(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_untraced_line_has_every_end_to_end_metric(self):
        line = metrics.result_line(raw_document(), trace=0)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        want = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        self.assertEqual(got, want)
        for v in line["metrics"].values():
            self.assertEqual(set(v), {"value", "unit"})
        json.dumps(line)  # serializable

    def test_per_layer_names_match(self):
        want = [(m["name"], m["unit"], m["better"])
                for m in self.bench["per_layer"]]
        self.assertEqual(want, list(metrics.PER_LAYER))

    def test_benchmark_json_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {}
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], unit)
            self.assertLessEqual(m["bound"], 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit)
        e2e = [(m["name"], m["unit"], m["better"]) for m in b["end_to_end"]]
        self.assertEqual(e2e, list(metrics.END_TO_END))
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])


if __name__ == "__main__":
    unittest.main()
