#!/usr/bin/env python3
# Copyright 2026 The LearnRisk Authors
"""Shape test of the repository benchmark.

Checks that BENCHMARK.json keeps to the benchmark contract, that every
workload's untraced and traced runs print every listed metric, finite and
with its unit, in a four-key result line with a passing output check, and
that each traced run's span dump is well formed. Runs every workload for a
few seconds per mode (about two minutes in all, plus the first build):

    python3 erbench/test_shape.py
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = 3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done


class SpecTest(unittest.TestCase):
    def test_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertLessEqual(len(spec["command"]), 32)
        for arg in spec["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)


class RunShapeTest(unittest.TestCase):
    def check_result(self, done, listed):
        self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Each metric is also printed by name with its unit.
            self.assertRegex(done.stdout, r"metric \S+\.%s = \S+ %s\n"
                             % (re.escape(m["name"]), re.escape(m["unit"])))
        return result

    def check_span_dump(self, done, workload):
        match = re.search(r"param %s\.span_dump = (\S+)" % workload, done.stdout)
        self.assertIsNotNone(match, "no span dump reported")
        with open(os.path.join(ROOT, match.group(1))) as f:
            dump = json.load(f)
        self.assertEqual(dump["workload"], workload)
        spans = {s["id"]: s for s in dump["spans"]}
        self.assertEqual(len(spans), len(dump["spans"]), "span ids repeat")
        self.assertTrue(spans, "no spans recorded")
        for s in dump["spans"]:
            self.assertEqual(set(s), {"name", "id", "parent", "request",
                                      "start_ns", "end_ns"})
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            if s["parent"]:
                parent = spans[s["parent"]]
                self.assertEqual(parent["request"], s["request"])
                self.assertLessEqual(parent["start_ns"], s["start_ns"])
                self.assertLessEqual(s["end_ns"], parent["end_ns"])
        self.assertTrue(dump["stages"], "no gateway StageTiming recorded")
        for note in dump["stages"]:
            self.assertGreaterEqual(note["wall_ms"], 0.0)
            self.assertIn(note["api"], ("resolve", "resolve_record", "add_record"))

    def test_workloads(self):
        spec = load_spec()
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result = self.check_result(run(w["name"], 0), spec["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertNotEqual(metric["value"], 0.0, name)
            with self.subTest(workload=w["name"], trace=1):
                done = run(w["name"], 1)
                self.check_result(done, spec["per_layer"])
                self.check_span_dump(done, w["name"])


if __name__ == "__main__":
    unittest.main()
