"""Tests of the span arithmetic behind the per-layer metrics.

Run from the repository root:

    python3 perfbench/trace_selftest.py

The span-tree tests use hand-built trees with known answers; the last test
wraps a small ``tsfl`` run and checks that tracing changes no result and
restores every wrapped attribute.
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

import tracing

# name, start, end, parent, amount
SPANS = [
    ("bench.repeat", 0.0, 10.0, -1, 0),                        # 0
    ("scheduler.run", 1.0, 9.0, 0, 100),                       # 1
    ("training.local_train", 2.0, 4.0, 1, 3),                  # 2
    ("training.stochastic_gradient", 2.5, 3.5, 2, 0),          # 3
    ("training.sample_grad", 2.6, 2.8, 3, 0),                  # 4
    ("training.local_grad", 2.9, 3.3, 3, 0),                   # 5
    ("training.local_train", 5.0, 6.0, 1, 2),                  # 6
    ("training.local_grad", 5.2, 5.4, 6, 0),                   # 7
    ("aggregation.bound_optimal_weights", 6.5, 8.0, 1, 0),     # 8
    ("aggregation.project_to_simplex", 6.6, 6.7, 8, 0),        # 9
    ("aggregation.project_to_simplex", 7.0, 7.2, 8, 0),        # 10
    ("training.global_grad", 8.2, 8.8, 1, 0),                  # 11
    ("training.local_grad", 8.3, 8.4, 11, 0),                  # 12
    ("cli.cell", 9.0, 9.5, 0, 0),                              # 13
    ("training.local_optimum", 9.1, 9.4, 13, 0),               # 14
    ("training.local_optimum", 9.2, 9.3, 14, 0),               # 15
    ("cli.cell", 9.5, 9.6, 0, 0),                              # 16
    ("cli.cell", 9.6, 10.0, 0, 0),                             # 17
]


def tree(spans=SPANS) -> tracing.SpanTree:
    names, starts, ends, parents, amounts = zip(*spans)
    return tracing.SpanTree(names, starts, ends, parents, amounts)


class SpanTreeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        self_times = tree().self_times()
        expected = {0: 10.0 - 8.0 - 1.0, 1: 8.0 - 2.0 - 1.0 - 1.5 - 0.6, 2: 2.0 - 1.0,
                    3: 1.0 - 0.2 - 0.4, 6: 1.0 - 0.2, 8: 1.5 - 0.1 - 0.2, 14: 0.3 - 0.1}
        for i, value in expected.items():
            self.assertAlmostEqual(self_times[i], value, msg=SPANS[i][0])

    def test_overlapping_children_are_covered_once(self):
        spans = [("p", 0.0, 5.0, -1, 0), ("a", 1.0, 3.0, 0, 0), ("b", 2.0, 4.0, 0, 0)]
        self.assertAlmostEqual(tree(spans).self_times()[0], 2.0)

    def test_inclusive_time_counts_outermost_recursive_span(self):
        totals = tree().layer_totals()
        self.assertEqual(totals["training.local_optimum"]["calls"], 2)
        self.assertAlmostEqual(totals["training.local_optimum"]["s"], 0.3)
        self.assertAlmostEqual(totals["training.local_optimum"]["self_s"], 0.3)

    def test_layer_metrics(self):
        m = tracing.layer_metrics(tree())
        self.assertEqual(m["scheduler.run.calls"], 1)
        self.assertAlmostEqual(m["scheduler.run.self_s"], 2.9)
        self.assertEqual(m["scheduler.intervals"], 100)
        self.assertEqual(m["training.sgd_steps"], 5)
        self.assertEqual(m["training.local_train.calls"], 2)
        self.assertAlmostEqual(m["training.local_train.self_s"], 1.8)
        # sample_grad and two local_grad calls ran under local_train; the
        # local_grad inside global_grad did not.
        self.assertAlmostEqual(m["training.grad_evals_per_step"], 3 / 5)
        self.assertEqual(m["training.local_grad.calls"], 3)
        self.assertAlmostEqual(m["training.local_grad.s"], 0.7)
        self.assertEqual(m["aggregation.fixed_point_iters"], 2)
        self.assertEqual(m["aggregation.fixed_point_iters_per_call"], 2)
        self.assertAlmostEqual(m["cli.cell_s_p50"], 0.4)
        self.assertAlmostEqual(m["cli.cell_s_max"], 0.5)
        self.assertAlmostEqual(m["cli.cell_imbalance"], 0.5 / (1.0 / 3))
        self.assertEqual(m["aggregation.bound_optimal_weights.calls"], 1)
        self.assertEqual(m["cli.run_experiment.s"], 0)

    def test_children_never_exceed_parent(self):
        tracing.check_nesting(tree())
        escaping = SPANS[:2] + [("training.local_train", 0.5, 4.0, 1, 0)]
        with self.assertRaises(ValueError):
            tracing.check_nesting(tree(escaping))

    def test_parents_must_precede_children(self):
        with self.assertRaises(ValueError):
            tree([("a", 0.0, 1.0, 1, 0), ("b", 0.0, 1.0, -1, 0)])

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(tracing.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(tracing.percentile([1, 2, 3, 4], 25), 1.75)
        self.assertEqual(tracing.percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(tracing.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(tracing.percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            tracing.percentile([], 50)


class RecorderTest(unittest.TestCase):
    def test_spans_share_their_cell_id(self):
        rec = tracing.SpanRecorder()

        def cell():
            rec.record("training.local_grad", lambda: None)

        def repeat():
            rec.record("cli.cell", cell)
            rec.record("cli.cell", cell)

        rec.record("bench.repeat", repeat)
        t = rec.spans()
        self.assertEqual(t.names, ["bench.repeat", "cli.cell", "training.local_grad",
                                   "cli.cell", "training.local_grad"])
        self.assertEqual(t.parents, [-1, 0, 1, 0, 3])
        self.assertEqual(t.cells, [0, 1, 1, 3, 3])
        tracing.check_nesting(t)


class InstrumentationTest(unittest.TestCase):
    def test_tracing_changes_no_result_and_restores_originals(self):
        sys.path.insert(0, str(Path.cwd() / "src"))
        from tsfl import scheduler, training
        from tsfl.core import SystemConstants
        from tsfl.scenarios import TaskSpec, preset

        scenario = dataclasses.replace(
            preset("case2", n_clients=4, data_size=64), batch_size=8,
            task=TaskSpec(kind="quadratic", dimension=3, noniid_spread=0.3),
        )
        constants = SystemConstants(eta=0.02, L=1.0, N=4, H=4, T=6, sigma_global=1.0)
        before = (scheduler.local_train, training.QuadraticTask.global_loss)
        plain = scheduler.run_tsfl(scenario, "tsfl-theorem2", constants, seed=3, probe_count=2)
        rec = tracing.SpanRecorder()
        with tracing.Instrumentation(rec):
            traced = rec.record("bench.repeat", scheduler.run_tsfl, scenario, "tsfl-theorem2",
                                constants, seed=3, probe_count=2)
        self.assertEqual((scheduler.local_train, training.QuadraticTask.global_loss), before)
        self.assertEqual(traced.final_model.tolist(), plain.final_model.tolist())
        m = tracing.layer_metrics(rec.spans())
        self.assertEqual(m["scheduler.intervals"], 6)
        self.assertEqual(m["training.sgd_steps"], int(plain.tau_matrix().sum()))
        self.assertEqual(m["training.grad_evals_per_step"], 2.0)
        self.assertEqual(m["aggregation.bound_optimal_weights.calls"], 6)
        self.assertGreater(m["aggregation.fixed_point_iters"], 6)


if __name__ == "__main__":
    unittest.main()
