"""Tests of the benchmark's own arithmetic: span self time, per-layer
metrics, metric names, the compare labels, an oracle helper and the
tracer's patching.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(spans.covered([]), 0.0)
        self.assertEqual(spans.covered([(0, 1), (2, 3)]), 2)
        self.assertEqual(spans.covered([(0, 2), (1, 3)]), 3)
        self.assertEqual(spans.covered([(0, 5), (1, 2), (3, 4)]), 5)

    def test_self_time_subtracts_direct_children_only(self):
        s = [Span("cli.main", "cli", 0.0, 10.0),
             Span("ksvd.fit", "ksvd", 1.0, 3.0, parent=0),
             Span("kernels.block", "kernels", 1.5, 2.0, parent=1),
             Span("io.save_report", "io", 5.0, 6.0, parent=0)]
        self.assertEqual(spans.self_times(s), [7.0, 1.5, 0.5, 1.0])

    def test_split_runs_rebases_parents(self):
        s = [Span("a", "ksvd", 0, 1, -1, run=0), Span("b", "kernels", 0, 1, 0, run=0),
             Span("a", "ksvd", 2, 3, -1, run=1), Span("b", "kernels", 2, 3, 2, run=1)]
        groups = spans.split_runs(s)
        self.assertEqual([[x.parent for x in g] for g in groups], [[-1, 0], [-1, 0]])

    def test_run_metrics(self):
        s = [Span("cli.main", "cli", 0.0, 10.0),
             Span("io.load_edge_list", "io", 0.0, 1.0, 0, counts={"bytes": 2_000_000}),
             Span("ksvd.fit", "ksvd", 1.0, 6.0, 0),
             Span("kernels.materialize", "kernels", 1.0, 5.0, 2),
             Span("kernels.block", "kernels", 1.0, 4.0, 3,
                  counts={"entries": 100, "flops": 3_000_000_000}),
             Span("kernels._sne_denominators", "kernels", 2.0, 3.0, 4,
                  counts={"norm_entries": 100, "flops": 1_000_000_000})]
        m = spans.run_metrics(s)
        self.assertEqual(m["cli.self_s"], 4.0)
        self.assertEqual(m["io.read_s"], 1.0)
        self.assertEqual(m["io.read_mb"], 2.0)
        self.assertEqual(m["io.read_mb_per_s"], 2.0)
        self.assertEqual(m["ksvd.fit_self_s"], 1.0)
        self.assertEqual(m["kernels.s"], 4.0)
        self.assertEqual(m["kernels.calls"], 1)
        self.assertEqual(m["kernels.entries"], 100)
        self.assertEqual(m["kernels.norm_entries"], 100)
        self.assertEqual(m["kernels.gflops_computed"], 1.0)
        self.assertEqual(m["solvers.asymnys_entry_fraction"], 0.0)

    def test_entry_fraction_and_nested_tsvd(self):
        s = [Span("solvers.asym_nystrom", "solvers", 0, 1, counts={"matrix_entries": 1000}),
             Span("kernels.block", "kernels", 0, 0.5, 0, counts={"entries": 150}),
             Span("kernels.block", "kernels", 0.5, 1, 0, counts={"entries": 50}),
             Span("solvers.truncated_svd", "solvers", 1, 3, counts={"iterations": 7}),
             Span("solvers.truncated_svd", "solvers", 1, 2, 3, counts={"iterations": 7})]
        m = spans.run_metrics(s)
        self.assertEqual(m["solvers.asymnys_entry_fraction"], 0.2)
        self.assertEqual(m["solvers.tsvd_iterations"], 7)
        self.assertEqual(m["solvers.tsvd_s"], 2.0)


class Names(unittest.TestCase):
    def test_metric_names_use_only_allowed_characters(self):
        import run
        from workloads import WORKLOADS
        names = list(spans.LAYER_METRICS) + list(run.END_TO_END) + ["failed_ratio"]
        for cls in WORKLOADS.values():
            names += list(cls(None, 0, "").metrics([]))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            self.assertRegex(name, spans.METRIC_NAME)

    def test_benchmark_json_lists_what_the_runner_reports(self):
        import run
        from workloads import WORKLOADS
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(spans.LAYER_METRICS))
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(WORKLOADS))
        for m in bench["per_layer"]:
            self.assertEqual((m["unit"], m["better"]), spans.LAYER_METRICS[m["name"]])


class Compare(unittest.TestCase):
    def test_labels(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(compare.label(base, [1.03, 1.04, 1.02, 1.03, 1.05], 0.1, "lower"),
                         "within bound")
        self.assertEqual(compare.label(base, [1.30, 1.31, 1.29, 1.30, 1.32], 0.1, "lower"),
                         "worse")
        self.assertEqual(compare.label(base, [0.70, 0.71, 0.69, 0.70, 0.72], 0.1, "higher"),
                         "worse")
        self.assertEqual(compare.label(base, [0.5, 1.5, 1.0, 0.6, 1.4], 0.1, "lower"),
                         "unresolved")
        # a wide spread is resolved when every new run beats every base run
        self.assertEqual(compare.label(base, [0.5, 0.9, 0.7, 0.6, 0.8], 0.1, "lower"),
                         "within bound")


class Oracles(unittest.TestCase):
    def test_span_cos_ignores_the_basis_of_a_span(self):
        import numpy as np
        from workloads import _span_cos
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((50, 6)))[0]
        rotated = q[:, :3] @ np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
        self.assertAlmostEqual(_span_cos(q[:, :3], -2.0 * rotated), 1.0)
        self.assertAlmostEqual(_span_cos(q[:, :3], q[:, 3:]), 0.0)
        # one shared direction out of two: the smallest cosine is 0
        self.assertAlmostEqual(_span_cos(q[:, :2], q[:, [0, 2]]), 0.0)


class Patching(unittest.TestCase):
    def test_install_traces_calls_and_uninstall_restores(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import numpy as np
        import aksvd
        import aksvd.cli
        before = (aksvd.fit_matrix, aksvd.ksvd.fit, aksvd.cli.auto_gamma,
                  aksvd.kernels.KernelOperator.block)
        tracer = spans.Tracer()
        tracer.install(aksvd)
        try:
            A = np.random.default_rng(0).random((6, 6))
            aksvd.fit_matrix(A, aksvd.KernelSpec.sne(aksvd.cli.auto_gamma(A)), 2)
        finally:
            tracer.uninstall()
        self.assertEqual(before, (aksvd.fit_matrix, aksvd.ksvd.fit, aksvd.cli.auto_gamma,
                                  aksvd.kernels.KernelOperator.block))
        names = [s.name for s in tracer.spans]
        for name in ("kernels.auto_gamma", "ksvd.fit_matrix", "ksvd.fit",
                     "kernels.materialize", "kernels.block", "kernels._sne_denominators",
                     "solvers.solve", "solvers.dense_svd"):
            self.assertIn(name, names)
        m = spans.run_metrics(tracer.spans)
        self.assertEqual(m["kernels.entries"], 36)
        self.assertEqual(m["kernels.norm_entries"], 36)
        fit = names.index("ksvd.fit")
        self.assertEqual(tracer.spans[fit].parent, names.index("ksvd.fit_matrix"))


if __name__ == "__main__":
    unittest.main()
