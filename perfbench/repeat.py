#!/usr/bin/env python3
"""Run one workload over several seeds and summarise every metric.

    python3 perfbench/repeat.py --workload update_small --seeds 1-10 \
        [--trace 0|1] [--seconds S] [--out summary.json]

Prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. --out writes the same summary, the box line and every
run's values as JSON. Exit status is 1 if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    a = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, box, ok = [], None, True
    for s in seeds(a.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(s), "--seconds", str(seconds), "--trace", a.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().split("\n")
        box = box or next((json.loads(l[4:]) for l in lines if l.startswith("box ")), None)
        try:
            res = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            res = None
        good = p.returncode == 0 and res is not None and res["correct"]
        ok = ok and good
        print(f"seed {s}: exit {p.returncode}, correct {good}", flush=True)
        if res:
            runs.append({"seed": s, "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                         "units": {k: v["unit"] for k, v in res["metrics"].items()}})

    summary = {}
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name in runs[0]["metrics"] if runs else []:
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": runs[0]["units"][name], "median": med, "q1": q1,
                         "q3": q3, "spread": spread, "values": vals}
        b = bounds.get(name)
        print(f"{name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
              f"{'' if b is None else b:>6}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "trace": a.trace, "seconds": seconds,
                       "seeds": [r["seed"] for r in runs], "box": box,
                       "metrics": summary}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
