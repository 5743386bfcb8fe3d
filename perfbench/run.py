#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (CMake, Release flags) into .bench_build/ at the repository
root when needed, runs the jiffybench program, checks that its result line
carries exactly the metrics BENCHMARK.json declares for the mode, and passes
its output through. The last line of standard output is the JSON result.
Exit status: 0 on success, 1 when an output check failed or the result is
malformed, 2 when the benchmark cannot be built or started.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("update_small", "batch_snapshot", "read_scan_large", "read_scan_1m")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    if not os.path.exists(os.path.join(ROOT, "src", "core", "jiffy.h")):
        die("engine sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE="])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "jiffybench")
    if not os.access(exe, os.X_OK):
        die("build produced no jiffybench binary")
    return exe


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = declared_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, f"{a.workload}.spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"jiffybench did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], a.trace == "1") if lines else "no output"
    if proc.returncode not in (0, 1) or problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(problem or f"jiffybench exited with {proc.returncode}", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
