#!/usr/bin/env python3
"""Unit tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The workload tests build the perfbench driver first (as run.py does).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402
import run  # noqa: E402


class NearestRankTest(unittest.TestCase):
    def test_single_value_is_every_percentile(self):
        for pct in (0, 1, 50, 90, 99, 100):
            self.assertEqual(analysis.nearest_rank([7.0], pct), 7.0)

    def test_rank_is_ceiling_of_share(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(analysis.nearest_rank(values, 50), 5)
        self.assertEqual(analysis.nearest_rank(values, 90), 9)
        self.assertEqual(analysis.nearest_rank(values, 91), 10)
        self.assertEqual(analysis.nearest_rank(values, 100), 10)
        self.assertEqual(analysis.nearest_rank(values, 0), 1)
        self.assertEqual(analysis.nearest_rank(values, 10), 1)
        self.assertEqual(analysis.nearest_rank(values, 10.5), 2)

    def test_returns_a_sample_value_not_an_interpolation(self):
        self.assertEqual(analysis.nearest_rank([1.0, 2.0], 50), 1.0)
        self.assertEqual(analysis.nearest_rank([1.0, 2.0], 51), 2.0)

    def test_unsorted_input_and_ties(self):
        self.assertEqual(analysis.nearest_rank([3, 1, 2, 2, 5], 60), 2)
        self.assertEqual(analysis.nearest_rank([3, 1, 2, 2, 5], 61), 3)

    def test_hundred_samples_p90_leaves_ten_beyond(self):
        values = [float(v) for v in range(100, 0, -1)]
        p90 = analysis.nearest_rank(values, 90)
        self.assertEqual(p90, 90.0)
        self.assertEqual(sum(v > p90 for v in values), 10)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            analysis.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            analysis.nearest_rank([1.0], -1)
        with self.assertRaises(ValueError):
            analysis.nearest_rank([1.0], 101)


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_every_name_matches_the_pattern(self):
        names = (list(analysis.END_TO_END) + list(analysis.PER_LAYER)
                 + [m["name"] for m in self.bench["end_to_end"]]
                 + [m["name"] for m in self.bench["per_layer"]]
                 + [w["name"] for w in self.bench["workloads"]])
        for name in names:
            self.assertRegex(name, analysis.METRIC_NAME)
        self.assertNotRegex("bad name", analysis.METRIC_NAME)
        self.assertNotRegex("p90/ms", analysis.METRIC_NAME)

    def test_benchmark_json_matches_the_metric_tables(self):
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, analysis.END_TO_END)
        layer = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(layer, analysis.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))


def span(name, ts, dur, tid=1, cat="engine"):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": tid}


# engine.run [0,100]
#   admit [10,40] > prefill [12,38] > prefix.adopt [14,20]
#   step_batch [50,80]; its kernel pseudo-spans start just before it:
#     attn.project [49.5,59.5] -> clamped to [50,59.5]
#     attn.attend [59.5,64.5], policy.observe [64.5,74.5]
#   sample [80,85]
# plus an overlapping span on another thread, which must not nest.
HAND_TRACE = {"traceEvents": [
    span("engine.run", 0, 100),
    span("admit", 10, 30),
    span("prefill", 12, 26),
    span("prefix.adopt", 14, 6, cat="prefix"),
    span("attn.project", 49.5, 10, cat="kernel"),
    span("attn.attend", 59.5, 5, cat="kernel"),
    span("policy.observe", 64.5, 10, cat="kernel"),
    span("step_batch", 50, 30),
    span("sample", 80, 5),
    span("worker", 20, 50, tid=2),
    {"name": "preempt", "cat": "sched", "ph": "i", "ts": 30, "pid": 1,
     "tid": 1},
]}


class SelfTimeTest(unittest.TestCase):
    def self_by_name(self, trace):
        spans = analysis.place_kernel_spans(analysis.complete_spans(trace))
        return {s["name"]: t for s, t in analysis.self_times(spans)}

    def test_nested_self_times(self):
        st = self.self_by_name(HAND_TRACE)
        self.assertAlmostEqual(st["engine.run"], 100 - 30 - 30 - 5)
        self.assertAlmostEqual(st["admit"], 30 - 26)
        self.assertAlmostEqual(st["prefill"], 26 - 6)
        self.assertAlmostEqual(st["prefix.adopt"], 6)
        self.assertAlmostEqual(st["step_batch"], 30 - 9.5 - 5 - 10)
        self.assertAlmostEqual(st["attn.project"], 9.5)
        self.assertAlmostEqual(st["sample"], 5)
        self.assertAlmostEqual(st["worker"], 50)

    def test_kernel_span_clamped_into_its_step(self):
        spans = analysis.place_kernel_spans([
            {"name": "step_batch", "cat": "engine", "tid": 1, "ts": 10.0,
             "end": 20.0},
            {"name": "policy.observe", "cat": "kernel", "tid": 1, "ts": 9.0,
             "end": 30.0},
            {"name": "attn.attend", "cat": "kernel", "tid": 1, "ts": 25.0,
             "end": 26.0},
        ])
        self.assertEqual((spans[1]["ts"], spans[1]["end"]), (10.0, 20.0))
        # No step on this thread ends after it: left as recorded.
        self.assertEqual((spans[2]["ts"], spans[2]["end"]), (25.0, 26.0))

    def test_siblings_and_zero_length_spans(self):
        trace = {"traceEvents": [
            span("engine.run", 0, 10),
            span("admit", 0, 5),
            span("retire", 5, 5),
            span("settle", 5, 0),
        ]}
        st = self.self_by_name(trace)
        self.assertAlmostEqual(st["engine.run"], 0)
        self.assertAlmostEqual(st["admit"], 5)
        self.assertAlmostEqual(st["retire"], 5)
        self.assertAlmostEqual(st["settle"], 0)

    def test_span_metrics(self):
        m = analysis.span_metrics(HAND_TRACE)
        us = 1e-6
        self.assertAlmostEqual(m["wall_s"], 100 * us)
        self.assertAlmostEqual(m["serve.prefill_s"], 26 * us)
        self.assertAlmostEqual(m["serve.decode_s"], 35 * us)
        self.assertAlmostEqual(m["serve.other_s"], 39 * us)
        self.assertAlmostEqual(m["serve.sched_s"], 4 * us)
        self.assertAlmostEqual(m["model.attn_project_s"], 10 * us)
        self.assertAlmostEqual(m["kvcache.observe_s"], 10 * us)
        self.assertAlmostEqual(m["kvcache.observe_share"], 10 / 35)
        self.assertAlmostEqual(m["mem.prefix_s"], 6 * us)
        self.assertAlmostEqual(m["model.step_ms"], 30e-3)
        # Everything on the engine thread nests in engine.run, so the
        # layers' self times add up to its wall.
        layers = sum(m[k] for k in ("serve.self_s", "model.self_s",
                                    "kvcache.self_s", "mem.self_s"))
        self.assertAlmostEqual(layers, 100 * us)


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(os.path.dirname(HERE))

    def describe(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--describe"], stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(out.stdout)

    def test_seed_determines_the_requests(self):
        for w in run.WORKLOADS:
            a = self.describe(w, 7)
            self.assertEqual(a, self.describe(w, 7))
            b = self.describe(w, 8)
            self.assertNotEqual(a["digest"], b["digest"])
            # Only the content changes with the seed, not the shape.
            for key in ("requests", "prompt_tokens", "gen_tokens",
                        "last_arrival"):
                self.assertEqual(a[key], b[key])
            self.assertGreaterEqual(a["requests"], 100)

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run([self.binary, "--workload", "nope", "--seed",
                               "1", "--describe"], stderr=subprocess.PIPE)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
