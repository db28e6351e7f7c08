#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py            # everything (~2 minutes)
    python3 perfbench/selftest.py -k compare # only the compare tests

* BENCHMARK.json is well formed and agrees with the binary's per-layer
  metric table, and every workload records why it exists.
* Tiny mode: every workload runs once untraced and once traced in
  seconds, exits 0, and reports every metric BENCHMARK.json names, each
  with a legal name and a unit, plus `name value unit` lines.
* compare.py returns the known verdict on synthetic run sets: a clear
  gain, a regression, an unresolved case, and a higher failed_frac.
* In a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.

Dependency-free: Python 3 standard library.
"""

import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        b = load_bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertEqual([w["name"] for w in b["workloads"]], run.WORKLOADS)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        names = set()
        for key in ("end_to_end", "per_layer"):
            for m in b[key]:
                self.assertRegex(m["name"], NAME_RE)
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
                self.assertNotIn(m["name"], names)
                names.add(m["name"])
        bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
        self.assertTrue(all(0 < v <= 0.25 for v in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_matches_binary(self):
        self.assertTrue(run.build(), "perfbench did not build")
        out = subprocess.run([str(run.BINARY), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
        table = [tuple(line.split()) for line in out.strip().split("\n")]
        listed = [(m["name"], m["unit"]) for m in load_bench()["per_layer"]]
        self.assertEqual(table, listed)


class TinyModeTest(unittest.TestCase):
    """Every workload once, untraced and traced, on tiny inputs."""

    def run_tiny(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        want = [m["name"] for m in load_bench()[key]]
        self.assertEqual(sorted(result["metrics"]), sorted(want))
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIsInstance(m["value"], (int, float))
        printed = {}
        for line in lines[:-1]:
            if line.startswith("#"):
                continue
            name, value, unit = line.split(" ")
            self.assertRegex(name, NAME_RE)
            self.assertRegex(unit, UNIT_RE)
            printed[name] = float(value)
        self.assertTrue(set(want) <= set(printed))
        self.assertEqual(printed["failed_frac"], 0)
        return printed

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                printed = self.run_tiny(workload, 0)
                for name in ("mb_s", "p50_ms", "tail_ms", "bytes_ratio"):
                    self.assertGreater(printed[name], 0)
            with self.subTest(workload=workload, trace=1):
                printed = self.run_tiny(workload, 1)
                self.assertGreater(
                    sum(v for n, v in printed.items()
                        if n.endswith(".self_ms_per_op")), 0)


def synthetic_run(workload, seed, metrics, attempted=100, failed=0):
    """One run's saved output, as run.py --out writes it."""
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    return "# workload %s\n# seed %d\n# trace 0\n%s\n" % (
        workload, seed, json.dumps(result))


class CompareTest(unittest.TestCase):
    BENCH = {"end_to_end": [
        {"name": "mb_s", "unit": "MB/s", "better": "higher", "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]}

    def verdicts(self, parent, change):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_runs") as tmp:
            for side, runs in (("p", parent), ("c", change)):
                d = Path(tmp) / side
                d.mkdir()
                for i, text in enumerate(runs):
                    (d / ("run%d.txt" % i)).write_text(text)
            out = io.StringIO()
            regressions = compare.compare(compare.load_runs(Path(tmp) / "p"),
                                          compare.load_runs(Path(tmp) / "c"),
                                          self.BENCH, out)
        rows = {}
        for line in out.getvalue().strip().split("\n")[1:]:
            parts = line.split()
            rows[parts[1]] = parts[-1]
        return rows, regressions

    @staticmethod
    def side(mb_s, p50, failed=0):
        return [synthetic_run("w", s, {"mb_s": m, "p50_ms": p}, failed=failed)
                for s, (m, p) in enumerate(zip(mb_s, p50))]

    def test_clear_gain(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        fast = [v * 1.3 for v in base]
        rows, reg = self.verdicts(self.side(base, base), self.side(fast, base))
        self.assertEqual(rows["mb_s"], "gain")
        self.assertEqual(rows["p50_ms"], "unchanged")
        self.assertEqual(rows["failed_frac"], "unchanged")
        self.assertEqual(reg, 0)

    def test_regression(self):
        base = [10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10]
        slow = [v * 1.3 for v in base]
        rows, reg = self.verdicts(self.side(base, base), self.side(base, slow))
        self.assertEqual(rows["p50_ms"], "regression")
        self.assertEqual(rows["mb_s"], "unchanged")
        self.assertEqual(reg, 1)

    def test_unresolved(self):
        noisy = [10, 14, 7, 12, 8, 15, 6, 11, 9, 13]
        other = [11, 13, 8, 12, 7, 16, 6, 10, 9, 14]
        rows, reg = self.verdicts(self.side(noisy, noisy),
                                  self.side(other, other))
        self.assertEqual(rows["mb_s"], "unresolved")
        self.assertEqual(rows["p50_ms"], "unresolved")
        self.assertEqual(reg, 0)

    def test_higher_failed_frac(self):
        base = [100] * 10
        rows, reg = self.verdicts(self.side(base, base),
                                  self.side(base, base, failed=3))
        self.assertEqual(rows["failed_frac"], "regression")
        self.assertEqual(reg, 1)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_sources(self):
        """With only BENCHMARK.json and perfbench/, there is nothing to
        build: run.py must fail fast and print no result."""
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_runs") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    unittest.main()
