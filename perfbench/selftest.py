"""Self-test of the benchmark's own logic (not of ranktail).

    python3 perfbench/selftest.py

Covers self-time arithmetic on nested spans, the wrapper install/uninstall,
that a truncated CSV or a non-converged run counts as a failed op, and that
the worker's peak RSS leaves out the memory of the process that started it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(sid, name, start, end, parent, **counters):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "counters": counters}


NESTED = [
    span(0, "bench.op", 0.0, 10.0, None),
    span(1, "report.analyze_graph", 1.0, 8.0, 0),
    span(2, "tails.fit_exponent_mle", 2.0, 5.0, 1),
    span(3, "tails.ccdf", 3.0, 4.5, 2),
    span(4, "pagerank.pagerank", 5.5, 7.0, 1, iters=3, edges=30, bytes=300),
    span(5, "tails.ccdf", 8.5, 9.0, 0),
]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        selfs = spans.self_times(NESTED)
        self.assertEqual(selfs, {0: 10.0 - 7.0 - 0.5, 1: 7.0 - 3.0 - 1.5,
                                 2: 3.0 - 1.5, 3: 1.5, 4: 1.5, 5: 0.5})
        self.assertAlmostEqual(sum(selfs.values()), 10.0)

    def test_overlapping_children_are_covered_once(self):
        overlapping = [span(0, "a.x", 0.0, 4.0, None), span(1, "b.y", 1.0, 3.0, 0),
                       span(2, "b.z", 2.0, 3.5, 0)]
        self.assertAlmostEqual(spans.self_times(overlapping)[0], 4.0 - 2.5)

    def test_layer_totals_count_outermost_spans_once(self):
        summary = spans.summarize(NESTED)
        self.assertEqual(summary["names"]["tails.ccdf"]["calls"], 2)
        self.assertAlmostEqual(summary["names"]["tails.ccdf"]["s"], 2.0)
        # the ccdf nested in fit_exponent_mle is inside the tails layer already
        self.assertAlmostEqual(summary["layers"]["tails"]["s"], 3.0 + 0.5)
        self.assertAlmostEqual(summary["layers"]["tails"]["self_s"], 1.5 + 1.5 + 0.5)

    def test_layer_metrics_account_for_the_op(self):
        m = run.layer_metrics(NESTED)
        self.assertAlmostEqual(m["trace.wall_s"], 10.0)
        self.assertAlmostEqual(m["trace.layer_self_frac"], (10.0 - 2.5) / 10.0)
        self.assertAlmostEqual(m["report.analyze_graph.self_s"], 2.5)
        self.assertAlmostEqual(m["pagerank.ms_per_iter"], 500.0)
        self.assertEqual(m["pagerank.bytes_per_iter_computed"], 100)
        self.assertEqual(m["simulate.generations"], 0)
        self.assertEqual(set(m) | {"trace.overhead_frac"}, {k for k, _ in run.PER_LAYER})


class Wrappers(unittest.TestCase):
    def test_install_wraps_every_lookup_name_and_uninstall_restores(self):
        import ranktail.report
        tails = sys.modules["ranktail.tails"]
        original = tails.ccdf
        recorder = spans.Recorder()
        undo = spans.install(recorder)
        try:
            self.assertIsNot(ranktail.report.ccdf, original)
            self.assertIs(ranktail.report.ccdf, tails.ccdf)
            tails.fit_exponent_mle(np.arange(1.0, 200.0), 10.0)
        finally:
            spans.uninstall(undo)
        self.assertIs(tails.ccdf, original)
        self.assertIs(ranktail.report.ccdf, original)
        names = [(s["name"], s["parent"]) for s in recorder.spans]
        self.assertEqual(names, [("tails.fit_exponent_mle", None), ("tails.ccdf", 0)])


class Checks(unittest.TestCase):
    """Run a shrunken scores_inmem op and damage its outputs."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        root = Path(cls.tmp.name)
        cls.workload = workloads.ScoresInmem()
        cls.workload.n, cls.workload.m = 3000, 30000
        indir = root / "inputs"
        indir.mkdir()
        cls.ctx = cls.workload.prepare(7, indir)
        cls.opdir = root / "op0"
        cls.opdir.mkdir()
        out = cls.workload.op(cls.workload.load(indir), cls.opdir)
        cls.workload.persist(out, cls.opdir)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def damaged(self, name: str, edit) -> list[str]:
        path = self.opdir / name
        saved = path.read_text(encoding="utf-8")
        path.write_text(edit(saved), encoding="utf-8")
        try:
            return self.workload.check(self.ctx, self.opdir)[0]
        finally:
            path.write_text(saved, encoding="utf-8")

    def test_intact_outputs_pass(self):
        failures, info = self.workload.check(self.ctx, self.opdir)
        self.assertEqual(failures, [])
        self.assertLessEqual(info["fixed_point_residual"], 1e-8)

    def test_truncated_score_csv_fails(self):
        self.assertTrue(self.damaged("scores_c0.85.csv", lambda t: t[: len(t) // 2]))
        cut_at_row = lambda t: t[: t.rindex("\n", 0, len(t) - 1) + 1]  # noqa: E731
        self.assertIn("lines, expected n+1", self.damaged("scores_c0.85.csv", cut_at_row)[0])

    def test_truncated_ccdf_csv_fails(self):
        self.assertIn("truncated", self.damaged("ccdf_indegree.csv", lambda t: t[:-3])[0])

    def test_non_converged_run_fails(self):
        def unconverge(text):
            rep = json.loads(text)
            rep["pagerank"]["0.5"]["converged"] = False
            return json.dumps(rep)
        self.assertIn("not converged", self.damaged("report.json", unconverge)[0])
        self.assertIn("not converged", self.damaged(
            "op.json", lambda t: json.dumps({**json.loads(t), "final_converged": False}))[0])

    def test_wrong_scores_fail(self):
        def scale(text):
            head, _, body = text.partition("\n")
            rows = [r.split(",") for r in body.splitlines()]
            return head + "\n" + "".join(f"{a},{float(b) * 1.001!r}\n" for a, b in rows)
        self.assertIn("mean", self.damaged("scores_c0.85.csv", scale)[0])


class PeakRss(unittest.TestCase):
    def test_worker_peak_excludes_the_parents_memory(self):
        ballast = np.ones(40_000_000)  # 320 MB resident in this process
        code = "import worker; print(worker.peak_rss_kb())"
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                             capture_output=True, text=True).stdout
        self.assertLess(int(out) * 1024, ballast.nbytes / 2)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
