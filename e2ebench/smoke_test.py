#!/usr/bin/env python3
"""Smoke tests for the end-to-end benchmark (e2ebench/run.py).

Run from the repository root:

    python3 e2ebench/smoke_test.py

Each test calls run.py the way a user does and checks what it promises:

* a tiny run of every workload, untraced and traced, ends with one JSON
  line holding exactly correct/attempted/failed/metrics, the metric
  names and units BENCHMARK.json lists, and exit code 0;
* a forced gate failure (an honest chain presented as a forged audit
  probe) makes the run report "correct": false and exit non-zero;
* in a directory holding only BENCHMARK.json and e2ebench/, the command
  exits non-zero without printing a result line.

The whole suite takes a few minutes (set-up of the exchange and audit
workloads proves real circuits).
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
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Schema(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result_line(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertIsInstance(res["attempted"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in listed])
        for m in listed:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_exchange(self):
        self.check("exchange", 0)
        self.check("exchange", 1)

    def test_audit(self):
        self.check("audit", 0)
        self.check("audit", 1)

    def test_transfer(self):
        self.check("transfer", 0)
        self.check("transfer", 1)


class Gates(unittest.TestCase):
    def test_accepted_forged_probe_fails_the_run(self):
        proc = run("audit", 0, "--inject-accepted-probe")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIs(result_line(proc)["correct"], False)
        self.assertIn("forged probe accepted", proc.stderr)

    def test_bare_benchmark_directory_fails_without_result(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("transfer", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(any(l.startswith("{")
                                 for l in proc.stdout.splitlines()))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
