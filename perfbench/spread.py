"""Run a workload once per seed and report each metric's median, quartiles
and spread (Q3 - Q1, as a share of the median) against its bound.

    python3 perfbench/spread.py --workload infer-ensemble --seeds 1-10
    python3 perfbench/spread.py --workload fullscale --seeds 1-10 --out perfbench/baseline/fullscale.json

Runs are sequential, each in its own process, from the checkout root.
Quartiles are `statistics.quantiles(values, n=4)`. A spread at or above a
third of the metric's bound is flagged: the benchmark is meant to stay
well inside its bounds from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary and every run's result here")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    runs = []
    for seed in seeds_of(args.seeds):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        wall = perf_counter() - t0
        lines = done.stdout.strip().splitlines()
        env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": wall, "result": result, "env": env})
        print(f"seed {seed}: wall {wall:.1f} s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = {}
    for spec in specs:
        name = spec["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        s = summary[name] = summarize(values)
        bound = spec.get("bound")
        flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
        print(f"{name:44s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
              + (f" bound {bound}" if bound is not None else "") + flag)
    walls = [r["wall_s"] for r in runs]
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "run_seconds": bench["run_seconds"], "summary": summary,
                       "runs": runs}, f, indent=1, sort_keys=True)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
