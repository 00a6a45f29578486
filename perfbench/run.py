"""Benchmark launcher: run one movingbeliefs workload and print its metrics.

    python3 perfbench/run.py --workload bodies --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``; nothing needs to be installed).  The workload runs in a child
process whose BLAS/OpenMP pools are pinned to one thread.  With ``--trace 0``
two more child processes repeat only the set-up, and ``setup_s`` is the
median of the three set-ups.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0 on
a completed run, 2 when the checkout has no library to benchmark, 3 when a
child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bodies", "transport", "sweep", "expect4d")
SETUP_REPEATS = 3
DEADLINE_S = 175.0

# One thread for every BLAS/OpenMP pool the scientific stack may start.
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def child(args, extra, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "movingbeliefs", "__init__.py")):
        print("error: no src/movingbeliefs next to perfbench/; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        result = child(args, [], deadline)
        if not args.trace:
            setups = [result["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_REPEATS - 1):
                setups.append(child(args, ["--setup-only"], deadline)["setup_s"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
