#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/test_perfbench.py

Runs every workload with --small: once untraced and twice traced at the
same seed.  It checks that the result line has the required shape and
names every metric of BENCHMARK.json with its unit, that the outputs are
correct, and that the exact work counters repeat.  It also checks
BENCHMARK.json against its format limits, and checks that the
benchmark refuses to run without the sources or with an interpreter
override in the environment.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT = ["sim.warp_issue_cycles", "sim.grids", "timing.segments",
         "engine.kcache_hits", "engine.kcache_misses", "engine.disk_writes"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, seed=1, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--small"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def result_line(test, proc):
    test.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    test.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
    test.assertIs(res["correct"], True, proc.stderr[-2000:])
    test.assertIsInstance(res["attempted"], int)
    test.assertIsInstance(res["failed"], int)
    test.assertGreaterEqual(res["attempted"], 1)
    return res


def check_metrics(test, res, declared):
    got = res["metrics"]
    test.assertEqual(set(got), {m["name"] for m in declared})
    for m in declared:
        entry = got[m["name"]]
        test.assertEqual(set(entry), {"value", "unit"})
        test.assertEqual(entry["unit"], m["unit"], m["name"])
        test.assertTrue(math.isfinite(entry["value"]), m["name"])


class Format(unittest.TestCase):
    def test_benchmark_json_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertIn(BENCH["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"]
                             + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT,
                                         prefix=".perfbench-selftest-") as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p))
            proc = run("suite", 0, cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_interpreter_override(self):
        env = dict(os.environ, DPC_INTERP="ref")
        proc = run("suite", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Workloads(unittest.TestCase):
    pass


def make_test(workload):
    def test(self):
        res = result_line(self, run(workload, 0))
        check_metrics(self, res, BENCH["end_to_end"])
        for m in BENCH["end_to_end"]:
            self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                               m["name"])
        traced = [result_line(self, run(workload, 1)) for _ in range(2)]
        for res in traced:
            check_metrics(self, res, BENCH["per_layer"])
        for name in EXACT:
            self.assertEqual(traced[0]["metrics"][name]["value"],
                             traced[1]["metrics"][name]["value"], name)
        self.assertGreater(traced[0]["metrics"]["sim.grids"]["value"], 0)
    return test


for _w in WORKLOADS:
    setattr(Workloads, "test_" + _w, make_test(_w))


if __name__ == "__main__":
    unittest.main()
