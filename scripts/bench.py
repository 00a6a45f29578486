#!/usr/bin/env python3
"""Run the benchmark of perfbench/ end to end and write one JSON record.

    python3 scripts/bench.py --out BENCH_30.json [--seconds 20]

Runs the unchanged ``perfbench/run.py`` for every workload that
BENCHMARK.json lists, at seeds 1-3 with ``--trace 0``, then once more per
workload at seed 1 with ``--trace 1``; then ``scripts/kernels.py`` in a
child process pinned as ``perfbench/run.py`` pins its workers, each kernel
row for a tenth of ``--seconds``.  The record holds, per workload, the
median and quartiles of each end-to-end metric over the seeds, the
per-layer values of the traced run, the kernel rows under ``"kernels"``,
the commit, the Python, numpy and scipy versions, and the settings.
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  Exit code 0
when every run is correct with no failed operation, 1 when one is not (the
record is written either way), 3 when a run itself failed.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACE_SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
from run import PINNED  # noqa: E402


def run(workload, seed, seconds, trace, cwd=ROOT):
    """The verdict and metrics ``perfbench/run.py`` in the checkout ``cwd``
    prints on its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("+", " ".join(cmd[1:]), flush=True)
    res = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} in {cwd} exited {res.returncode}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    print(f"  -> correct {out['correct']}, {out['attempted']} attempted, {out['failed']} failed", flush=True)
    return out


def kernels(seconds):
    """The rows ``scripts/kernels.py`` prints, each timed for seconds / 10."""
    cmd = [sys.executable, "scripts/kernels.py", "--seconds", str(seconds / 10)]
    print("+", " ".join(cmd[1:]), flush=True)
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread(values):
    """Median and quartiles (inclusive method) of the per-seed values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def git(*args):
    res = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    workloads, ok = {}, True
    try:
        for w in (spec["name"] for spec in bench["workloads"]):
            runs = [run(w, seed, args.seconds, 0) for seed in SEEDS]
            traced = run(w, TRACE_SEED, args.seconds, 1)
            ok &= all(r["correct"] is True and r["failed"] == 0 for r in [*runs, traced])
            workloads[w] = {
                "correct": [r["correct"] for r in runs] + [traced["correct"]],
                "failed": [r["failed"] for r in runs] + [traced["failed"]],
                "end_to_end": {m["name"]: {"unit": m["unit"], **spread([r["metrics"][m["name"]]["value"] for r in runs])}
                               for m in bench["end_to_end"]},
                "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
            }
        kernel_rows = kernels(args.seconds)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "settings": {"seeds": list(SEEDS), "trace_seed": TRACE_SEED, "seconds": args.seconds},
        "workloads": workloads,
        "kernels": kernel_rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}: {'every run correct' if ok else 'A RUN FAILED ITS CHECKS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
