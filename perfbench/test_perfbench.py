#!/usr/bin/env python3
"""Self-tests of the benchmark on its smoke sizes (about a minute).

    python3 perfbench/test_perfbench.py

Each workload runs at its smoke size, untraced and traced: the result
line must be correct and carry exactly the metrics BENCHMARK.json
declares, with their units, and the traced run must leave a readable
Chrome trace. A copy of the benchmark without the library sources must
fail without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(workload, trace, seed=3, extra=(), cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for spec in declared:
            got = result["metrics"][spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            if not trace:
                self.assertGreater(got["value"], 0, spec["name"])
        return proc

    def test_untraced(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_traced_writes_chrome_trace(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1)
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed3.json" % w["name"])
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_pin_drift_fails_the_run(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt") as pins:
            pins.write("fleet128-smoke * sim_makespan_ms 1.5\n")
            pins.flush()
            proc = run_bench("fleet128", 0, extra=["--pins", pins.name])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("drifted", proc.stderr)
        self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["correct"])

    def test_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("paper256", 0, cwd=tmp,
                             run=os.path.join(tmp, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
