#!/usr/bin/env python3
"""Self-tests of the repo benchmark: python3 perfbench/test_bench.py

Runs every workload briefly, untraced and traced, and checks that
  * the result line carries exactly the metrics BENCHMARK.json declares,
    each with its unit, and no output check failed;
  * every end-to-end metric of a role the workload has is printed by name;
  * the traced run writes parent-linked spans for every layer;
  * a checkout holding only BENCHMARK.json and perfbench/ fails without
    printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LAYERS = {"bench", "core", "ebr", "tsc", "common", "workload", "obs"}
SECONDS = "1"


def run(workload, trace, cwd=ROOT, run_py=RUN):
    return subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", trace],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


class BenchmarkTest(unittest.TestCase):
    def check_result(self, proc, key):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().split("\n")
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for v in res["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))
        text = "\n".join(lines[:-1])
        self.assertRegex(text, r"failed_frac\s+0 ratio")
        box = json.loads(next(l for l in lines if l.startswith("box "))[4:])
        self.assertEqual(set(box), {"nproc", "cpu", "l2_bytes", "l3_bytes",
                                    "compiler", "flags", "seed"})
        self.assertEqual(box["seed"], 7)
        return res, text

    def check_spans(self, workload):
        path = os.path.join(ROOT, ".bench_build", "traces", f"{workload}.spans")
        spans = {}
        with open(path) as f:
            for line in f:
                if line.startswith("#"):
                    continue
                tid, op, sid, parent, name, t0, t1 = line.split()
                spans[(tid, sid)] = (op, parent, name, float(t0), float(t1))
        self.assertTrue(spans)
        layers = set()
        for (tid, sid), (op, parent, name, t0, t1) in spans.items():
            layers.add(name.split(".")[0])
            self.assertLessEqual(t0, t1)
            if parent == "-1":
                self.assertEqual(op, sid)
                self.assertTrue(name.startswith("bench."), name)
                continue
            self.assertIn((tid, parent), spans, f"{name} has no parent")
            pop, _, _, p0, p1 = spans[(tid, parent)]
            self.assertEqual(pop, op)
            self.assertTrue(p0 <= t0 and t1 <= p1, f"{name} outside its parent")
        self.assertEqual(layers, LAYERS)


def make_case(workload, roles):
    def test_untraced(self):
        _, text = self.check_result(run(workload, "0"), "end_to_end")
        for role in roles:
            for m in ("mops", "p50_us", "p99_us"):
                self.assertRegex(text, rf"\n\s+{role}_{m}\s+\S+ ")
        self.assertRegex(text, r"latency samples")

    def test_traced(self):
        self.check_result(run(workload, "1"), "per_layer")
        self.check_spans(workload)

    return test_untraced, test_traced


for _w, _roles in (("update_small", ("update", "get")),
                   ("batch_snapshot", ("update", "get", "scan")),
                   ("read_scan_large", ("update", "get", "scan"))):
    _u, _t = make_case(_w, _roles)
    setattr(BenchmarkTest, f"test_{_w}_untraced", _u)
    setattr(BenchmarkTest, f"test_{_w}_traced", _t)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_engine_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "update_small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
