"""Self-tests of the benchmark, at a reduced size.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from trisect.scalars import Cyc  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


class MetricsTest(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        spec = _spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, units in (("0", run.END_TO_END_UNITS), ("1", run.PER_LAYER_UNITS)):
            out = _run("--workload", "oracles", "--seed", "3", "--seconds", "0.1", "--trace", trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
            for name, v in result["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), name)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            out = _run("--workload", "oracles", "--seconds", "0.1", cwd=Path(tmp))
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


class CheckTest(unittest.TestCase):
    def _tally(self, wl) -> run.Tally:
        tally = run.Tally()
        run.run_pass(wl, tally)
        return tally

    def test_corrupted_reference_raises_fail_ratio(self):
        for name in ("ladder-exact", "ladder-float"):
            wl = workloads.setup(name, seed=5, scale=1)
            clean = self._tally(wl)
            self.assertNotIn(workloads.MISMATCH, clean.causes)
            spec = workloads.STRONG_SPECS[0]
            wl.refs[spec] = wl.refs[spec].scaled(2)
            bad = self._tally(wl)
            self.assertGreater(bad.failed / bad.attempted, clean.failed / clean.attempted)
            self.assertGreater(bad.causes.get(workloads.MISMATCH, 0), 0)

    def test_identities_and_oracles_pass_at_small_size(self):
        for name in ("identities", "oracles"):
            tally = self._tally(workloads.setup(name, seed=2, scale=1))
            self.assertGreater(tally.attempted, 0)
            self.assertEqual(tally.failed, 0, tally.causes)

    def test_seed_fixes_the_inputs(self):
        def ladder(seed):
            return list(workloads.ladder_diagrams(workloads.ladder_plan(seed, (1, 4))))

        self.assertEqual(ladder(7), ladder(7))
        self.assertNotEqual(ladder(7), ladder(8))
        self.assertEqual(workloads.oracle_diagrams(4, 2), workloads.oracle_diagrams(4, 2))


class ScalingTest(unittest.TestCase):
    def test_times_are_scaled_by_the_probe(self):
        wl = workloads.Workload(lambda: iter([lambda: None]))
        tally, raw = run.Tally(), []
        with mock.patch.object(run, "reference_loop", return_value=2 * run.REF_SAMPLE_S):
            scaled = run.run_pass(wl, tally, raw)
        self.assertAlmostEqual(scaled, raw[0] / 2)
        self.assertEqual(tally.attempted, 1)


class TracerTest(unittest.TestCase):
    def test_install_counts_and_restores(self):
        original = Cyc.__dict__["__mul__"]
        tracer = Tracer()
        restore = tracer.install()
        try:
            Cyc.zeta(3) * Cyc.zeta(4)
        finally:
            restore()
        self.assertIs(Cyc.__dict__["__mul__"], original)
        self.assertEqual(tracer.calls["scalars.mul"], 1)
        self.assertEqual(tracer.calls["scalars.mixed_level_ops"], 1)
        names = set(tracer.metrics(1, 0, 0, 1)) | {"trace.overhead_ratio"}
        self.assertEqual(names, set(run.PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
