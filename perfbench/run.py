"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

Run from the root of a multidiac checkout; the package is imported from
its `src/` directory. With `--trace 0` the run measures the end-to-end
metrics with nothing wrapped. With `--trace 1` it runs the workload twice
with the same seed, first untraced and then traced, reports the per-layer
metrics of the traced pass, and fails the run if any output differs
between the two. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it, `env`,
is the environment record.

Exit status 0 when the run completed (its correctness is in the JSON); 2
when it could not start, for example outside a checkout.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS threads at the core count, in this process's own environment,
# before numpy loads.
NPROC = os.cpu_count() or 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), NPROC) if _have.isdigit() and int(_have) > 0
                           else NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import multidiac from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "multidiac", "__init__.py")):
        return f"no multidiac sources under {SRC}"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import multidiac
    if os.path.dirname(os.path.abspath(multidiac.__file__)) != os.path.join(SRC, "multidiac"):
        return f"multidiac imported from {multidiac.__file__}, not from {SRC}"
    return None


def environment(args) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "multidiac"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC, "machine": platform.machine(),
    }


def finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def run_pass(workload, work, seed, seconds, plan=None):
    import workloads
    p = workloads.Pass(work, seed, seconds, plan)
    t0 = perf_counter()
    workload(p)
    return p.results, perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_program()
    if problem:
        print(f"error: {problem}; run from the root of a multidiac checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    import layertrace
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        results, wall = run_pass(workload, os.path.join(work, "a"), args.seed,
                                 args.seconds)
        if args.trace == 0:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = workloads.end_to_end(results, peak_mb)
            units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
            outcome = results
        else:
            tracer = layertrace.Tracer()
            with tracer:
                traced, traced_wall = run_pass(workload, os.path.join(work, "b"),
                                               args.seed, args.seconds, results.plan)
            if traced.loss_histories != results.loss_histories:
                traced.fail(1, "trace changed the loss history")
            if traced.prediction_digest() != results.prediction_digest():
                traced.fail(1, "trace changed the predictions")
            values = tracer.metrics(traced_wall / wall - 1.0)
            units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
            outcome = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    env = environment(args)
    metrics_out = {name: {"value": finite_or_none(values[name]), "unit": units[name]}
                   for name in units}
    for name, m in metrics_out.items():
        print(f"{name:48s} {m['value']!s:>24} {m['unit']}")
    print(f"ops attempted={outcome.attempted} failed={outcome.failed} "
          f"sentences={len(outcome.sentence_s)} fits={len(outcome.train_rates)} "
          f"prediction_digest={outcome.prediction_digest()[:16]}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": outcome.failed == 0 and all(
                  m["value"] is not None for m in metrics_out.values()),
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics_out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
