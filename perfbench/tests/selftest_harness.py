"""Tests of the benchmark's own statistics, spans and failure counting.

    python3 -m unittest discover -s perfbench/tests -p 'selftest_*.py'

Named selftest_*.py so that the repository's pytest run does not collect them.
"""

import os
import random
import sys
import time
import unittest
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import (NullTracer, Span, Tracer, rounds_for, run_phase, self_times,  # noqa: E402
                     slowest_tenth_mean, summarize, tail)
from worker import end_to_end, layer_metrics  # noqa: E402


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        value, pct, n = tail(values)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_percentile_follows_sample_count(self):
        self.assertEqual(tail(range(1000)), (989, 99.0, 1000))
        self.assertEqual(tail(range(200)), (189, 95.0, 200))
        value, pct, _ = tail(range(18))  # cli_cold: the 11th largest, below the median
        self.assertEqual(value, 7)
        self.assertAlmostEqual(pct, 100.0 * 8 / 18)
        for n in (11, 137, 4321):
            value, pct, _ = tail(range(n))
            self.assertEqual(n - 1 - value, 10)

    def test_ten_or_fewer_samples_give_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        with self.assertRaises(ValueError):
            tail([])


class SlowestMeanTest(unittest.TestCase):
    def test_mean_of_the_slowest_tenth(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        self.assertEqual(slowest_tenth_mean(values), sum(range(90, 101)) / 11)  # p90 and beyond
        self.assertEqual(slowest_tenth_mean(range(158)), sum(range(142, 158)) / 16)
        self.assertEqual(slowest_tenth_mean(range(18)), 16.5)  # cli_cold: the two slowest
        self.assertEqual(slowest_tenth_mean([2.0, 1.0]), 2.0)
        with self.assertRaises(ValueError):
            slowest_tenth_mean([])


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            Span("a", 0.0, 10.0, None, "0"),
            Span("b", 1.0, 4.0, 0, "0"),
            Span("c", 2.0, 3.0, 1, "0"),
            Span("d", 5.0, 6.0, 0, "0"),
            Span("e", 5.5, 7.0, 0, "0"),   # overlaps d: the union counts once
            Span("f", 9.5, 12.0, 0, "0"),  # clipped to the parent's end
        ]
        self.assertEqual(self_times(spans), [4.5, 2.0, 1.0, 1.0, 1.5, 2.5])

    def test_tracer_records_parents_and_self_time_adds_up(self):
        tr = Tracer()
        tr.op_id = "7.1"
        with tr.span("op"):
            with tr.span("bounds.x"):
                tr.call("coherence.y", sum, range(1000))
            tr.call("dynamics.z", sorted, range(1000))
        self.assertEqual([s.parent for s in tr.spans], [None, 0, 1, 0])
        self.assertEqual({s.op_id for s in tr.spans}, {"7.1"})
        self.assertEqual(tr.root_names(), ["op"] * 4)
        root = tr.spans[0]
        self.assertAlmostEqual(sum(self_times(tr.spans)), root.end - root.start, places=12)

    def test_layer_metrics_from_spans(self):
        tr = Tracer()
        with tr.span("op"):
            with tr.span("bounds.f"):
                tr.call("coherence.g", sum, range(10))
        with tr.span("attribution"):
            tr.call("coherence.g", sum, range(10))
        tr.maximum("dynamics.cond.max", 3.0)
        tr.maximum("dynamics.cond.max", 2.0)
        names = ["bounds.f.calls", "coherence.g.calls", "coherence.g.total_s",
                 "bounds.self_s", "dynamics.cond.max", "cli.absent.p50_us"]
        m, labelled = layer_metrics(tr, names)
        self.assertEqual(m["bounds.f.calls"], 1.0)
        self.assertEqual(m["coherence.g.calls"], 2.0)
        self.assertEqual(m["dynamics.cond.max"], 3.0)
        self.assertEqual(m["cli.absent.p50_us"], 0.0)
        f, g = tr.spans[1], tr.spans[2]
        self.assertAlmostEqual(m["bounds.self_s"], (f.end - f.start) - (g.end - g.start))
        self.assertEqual(labelled, ["coherence.g.calls", "coherence.g.total_s"])


def fake_workload(fail_at: int, raise_at: int, known: dict):
    def make_round(seed, j):
        return list(range(5))

    def run_op(ctx, i, tr):
        if i == raise_at:
            raise ArithmeticError("forced")
        return i

    def check(ctx, inp, args, out, exc):
        if exc is not None:
            return [f"raised:{type(exc).__name__}"]
        return ["forced_check"] if out == fail_at else []

    return SimpleNamespace(make_round=make_round, prepare=lambda ctx, inp: inp, run_op=run_op,
                           check=check, attribute=lambda *a: None, op_class=str,
                           KNOWN_DEFECTS=known)


class FailureCountTest(unittest.TestCase):
    def test_forced_check_failure_counts_in_failed_frac(self):
        wl = fake_workload(fail_at=2, raise_at=4, known={})
        phase = run_phase(wl, None, 0, (NullTracer(),), 2)
        metrics, s = end_to_end(wl, phase, setup_s=0.5)
        self.assertEqual((s["attempted"], s["failed"]), (10, 4))
        self.assertEqual(metrics["failed_frac"], 0.4)
        self.assertEqual(s["violations"], {"forced_check": 2, "raised:ArithmeticError": 2})
        self.assertEqual(s["unexpected"], ["forced_check", "raised:ArithmeticError"])

    def test_known_defect_still_counts_but_is_not_unexpected(self):
        wl = fake_workload(fail_at=2, raise_at=-1, known={"forced_check": "documented"})
        s = summarize(run_phase(wl, None, 0, (NullTracer(),), 1), wl.KNOWN_DEFECTS)
        self.assertEqual((s["attempted"], s["failed"], s["unexpected"]), (5, 1, []))

    def test_phase_runs_whole_rounds(self):
        wl = fake_workload(fail_at=-1, raise_at=-1, known={})
        phase = run_phase(wl, None, 0, (NullTracer(),), 1)
        self.assertEqual((phase.rounds, len(phase.ops)), (1, 5))
        phase = run_phase(wl, None, 0, (NullTracer(),), 3)
        self.assertEqual((phase.rounds, len(phase.ops)), (3, 15))

    def test_round_count_follows_seconds_not_the_clock(self):
        wl = SimpleNamespace(ROUND_S=0.5)
        self.assertEqual([rounds_for(wl, s) for s in (15, 15.2, 1, 0.1)], [30, 30, 2, 1])
        wl.MIN_ROUNDS = 3
        self.assertEqual([rounds_for(wl, s) for s in (15, 1)], [30, 3])

    def test_throughput_and_cpu_count_only_the_ops(self):
        wl = fake_workload(fail_at=-1, raise_at=-1, known={})
        slow_check = wl.check

        def check(*a):
            time.sleep(0.02)  # the benchmark's own work, outside the op
            return slow_check(*a)

        wl.check = check
        phase = run_phase(wl, None, 0, (NullTracer(),), 1)
        self.assertGreater(phase.wall_s, 0.1)
        self.assertLess(phase.op_s, 0.01)
        self.assertAlmostEqual(phase.op_s, sum(op.latency_s for op in phase.ops), places=12)
        metrics, _ = end_to_end(wl, phase, setup_s=0.5)
        self.assertAlmostEqual(metrics["throughput_ops_s"], 5 / phase.op_s)

    def test_traced_run_pairs_each_op_in_alternating_order(self):
        wl = fake_workload(fail_at=2, raise_at=-1, known={})
        tr = Tracer()
        phase = run_phase(wl, None, 0, (NullTracer(), tr), 1)
        self.assertEqual([op.traced for op in phase.ops],
                         [False, True, True, False, False, True, True, False, False, True])
        self.assertEqual(sum(1 for op in phase.ops if op.violations), 2)
        self.assertEqual([s.name for s in tr.spans].count("op"), 5)


if __name__ == "__main__":
    unittest.main()
