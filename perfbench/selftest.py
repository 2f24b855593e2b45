#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, must print every metric named in BENCHMARK.json with its unit.
That includes quickstart, which run.py keeps for runs by hand although
BENCHMARK.json does not list it.

    python3 perfbench/selftest.py

Takes about ten seconds; run it from anywhere inside a checkout.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py)
import tracer  # noqa: E402


def _bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


class BenchmarkOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def _result(self, workload: str, trace: int) -> dict:
        done = _bench(
            ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def _check(self, result: dict, declared: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric, {"value": metric["value"], "unit": expected[name]}, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self._result(workload, 0)
                self._check(result, self.spec["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self._result(workload, 1)
                self._check(result, self.spec["per_layer"])
                self.assertGreater(result["metrics"]["cli.run_cli.calls"]["value"], 0)

    def test_declared_metrics_match_the_code(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.per_layer_units()
        )
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))

    def test_fails_without_sources(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.WORK)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _bench(bare, "--workload", "large-bank", "--seed", "1", "--seconds", "1", "--trace", "0")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(run.WORK)  # only when no benchmark run is using it


class TracerInstall(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, run.SRC)
        self.addCleanup(sys.path.remove, run.SRC)
        import sfda2  # noqa: F401

    def test_wraps_import_sites_and_restores(self):
        import importlib

        import sfda2

        adapt_module = importlib.import_module("sfda2.adapt")
        banks_module = importlib.import_module("sfda2.banks")
        original_knn = banks_module.knn
        original_adapt = sfda2.adapt
        with tracer.Tracer() as t:
            # The package attribute `adapt` is the re-exported function; the
            # module of the same name is still wrapped through sys.modules.
            self.assertIsNot(sfda2.adapt, original_adapt)
            self.assertIsNot(banks_module.knn, original_knn)
            self.assertIs(adapt_module.knn, banks_module.knn)
        self.assertIs(banks_module.knn, original_knn)
        self.assertIs(adapt_module.knn, original_knn)
        self.assertIs(sfda2.adapt, original_adapt)
        self.assertEqual(t.report(), {})

    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        outer = t._wrap("x.outer", lambda f: f())
        inner = t._wrap("x.inner", lambda: sum(range(20000)))
        outer(inner)
        report = t.report()
        self.assertEqual(report["x.outer"]["calls"], 1)
        self.assertAlmostEqual(
            report["x.outer"]["self_s"],
            report["x.outer"]["busy_s"] - report["x.inner"]["busy_s"],
            places=12,
        )

    def test_missing_function_and_argument_report_zero(self):
        metrics = run._layer_metrics({}, {}, traced_op=1.0, untraced_op=1.0)
        self.assertEqual(metrics["banks.knn.calls"], 0)
        self.assertEqual(metrics["banks.knn.valid_share"], 0.0)
        self.assertEqual(set(metrics), set(run.per_layer_units()))
        self.assertIsNone(tracer._knn_counts(lambda bank, k: None))


if __name__ == "__main__":
    unittest.main()
