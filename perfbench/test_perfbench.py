"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the benchmark (like perfbench/run.py) and run every workload
three times: twice untraced with one seed, once traced. That takes several
minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Simulated outputs: deterministic for a seed, unlike the host timings.
SIMULATED = ("delivery_fraction", "tracking_success_rate", "als_resolve_fraction")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n"
                             f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1]), out.stdout


class BenchmarkFile(unittest.TestCase):
    def test_shape(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in b["end_to_end"])}, b["end_to_end"])


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.runs = {}
        for w in cls.bench["workloads"]:
            name = w["name"]
            cls.runs[name] = (run(name, 5, 0), run(name, 5, 0), run(name, 5, 1))

    def check_names(self, result, stdout, spec):
        units = {m["name"]: m["unit"] for m in spec}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float))
            # Every metric is also on a human-readable line with its unit.
            self.assertRegex(stdout, rf"(?m)^\s+{re.escape(name)}\s+\S+\s+{re.escape(m['unit'])}\b")

    def test_printed_names_are_declared(self):
        for name, ((first, out0), _, (traced, out1)) in self.runs.items():
            with self.subTest(workload=name):
                self.assertTrue(first["correct"])
                self.assertTrue(traced["correct"])
                self.assertGreaterEqual(first["attempted"], 1)
                self.check_names(first, out0, self.bench["end_to_end"])
                self.check_names(traced, out1, self.bench["per_layer"])

    def test_same_seed_same_simulated_metrics(self):
        for name, ((a, _), (b, _), (t, _)) in self.runs.items():
            with self.subTest(workload=name):
                for key in ("attempted", "failed"):
                    self.assertEqual(a[key], b[key])
                    self.assertEqual(a[key], t[key])
                for m in SIMULATED:
                    self.assertEqual(a["metrics"][m]["value"], b["metrics"][m]["value"], m)

    def test_incomplete_checkout_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-gpsr", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
