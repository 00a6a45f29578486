#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on HEAD in alternating pairs and write one JSON record.

    python3 scripts/bench.py --parent REF --out BENCH_<n>.json [--seconds 20]

REF and HEAD are checked out with ``git worktree add --detach`` in a
temporary directory (no network), and the worktrees are removed on exit,
also on an error or SIGTERM.  For every workload of BENCHMARK.json, pair
i = 1..10 runs each side's unchanged ``perfbench/run.py --seed i --trace
0``; the parent goes first in odd pairs, HEAD in even ones.  Then each
side makes one ``--trace 1`` run at seed 1, and HEAD's
``scripts/kernels.py`` runs once in each side's tree, in a child process
pinned as ``perfbench/run.py`` pins its workers, each row for a tenth of
``--seconds``.  Per workload and end-to-end metric the record holds both
sides' medians, quartiles and runs and the readings of ``compare``; per
side, the per-layer values of the traced run and the kernel rows; and the
commits, the Python, numpy and scipy versions and the settings.
``--seconds`` defaults to BENCHMARK.json's ``run_seconds``.  Uncommitted
edits to tracked files are refused, since the record measures HEAD.  Exit
code 0 when every run is correct with no failed operation and HEAD builds
and runs every kernel row, 1 when not (the record is written either way),
3 when git or a run failed or the tree has uncommitted edits.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import numpy
import scipy

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs on which a gain can be read
TRACE_SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
from run import PINNED  # noqa: E402


def spread(values):
    """Median and quartiles (inclusive method) of the per-run values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent, change, better, bad_runs, bound=0.0):
    """Each side's spread, wins and the two readings on per-pair values of
    one metric, ``better`` "lower" or "higher"; ``bad_runs`` maps each side
    to the number of its runs that were not correct or had a failed
    operation.  The verdict is "gain" only when there are at least PAIRS
    pairs, the change has no more bad runs than the parent, it wins at least
    nine tenths of the pairs, ties counting for neither side, and its median
    is better than the parent's by more than the parent's quartile spread
    q3 - q1; else "no gain".  The regression reading is "regression" when
    the change's median is worse than the parent's by more than ``bound``
    times the parent's median, "unresolved" when the parent's quartile
    spread is wider than that, unless every run of the change is better
    than every run of the parent, and "no regression" otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (p - c) for p, c in zip(parent, change, strict=True)]  # > 0: the change won
    wins = {"change": sum(x > 0 for x in diffs), "parent": sum(x < 0 for x in diffs)}
    sides = {"parent": spread(parent), "change": spread(change)}
    gap = sides["change"]["median"] - sides["parent"]["median"]
    parent_spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    gain = (len(diffs) >= PAIRS and bad_runs["change"] <= bad_runs["parent"]
            and 10 * wins["change"] >= 9 * len(diffs) and -sign * gap > parent_spread)
    limit = bound * sides["parent"]["median"]
    if sign * gap > limit:
        regression = "regression"
    elif parent_spread > limit and not all(sign * (p - c) > 0 for p in parent for c in change):
        regression = "unresolved"
    else:
        regression = "no regression"
    return {**sides, "better": better, "wins": wins, "gap": gap, "parent_spread": parent_spread,
            "verdict": "gain" if gain else "no gain", "regression": regression}


def last_line(cmd, cwd, env=None):
    """The JSON object that ``cmd`` prints on its last line, run in ``cwd``;
    a non-zero exit or no output raises RuntimeError."""
    print("+", " ".join(map(str, cmd[1:])), f"(in {cwd})", flush=True)
    res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(map(str, cmd[1:]))} in {cwd} exited {res.returncode}"
                           f" with {len(lines)} lines of output")
    return json.loads(lines[-1])


def run(tree, workload, seed, seconds, trace):
    """The verdict and metrics of ``perfbench/run.py`` in the checkout ``tree``."""
    out = last_line([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)], tree)
    print(f"  -> correct {out['correct']}, {out['attempted']} attempted, {out['failed']} failed", flush=True)
    return out


def pairs(trees, workload, seconds):
    """The untraced runs of both sides for pairs 1..PAIRS, each side's list
    in pair order, and which side went first in each pair."""
    runs, first = {side: [] for side in SIDES}, []
    for i in range(1, PAIRS + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            print(f"{workload}, pair {i}, {side}:", flush=True)
            runs[side].append(run(trees[side], workload, i, seconds, 0))
    return runs, first


def workload_record(trees, workload, seconds, end_to_end):
    """Both sides' pairs and traced run of one workload, and each metric of
    ``end_to_end`` (BENCHMARK.json's list) read by ``compare``."""
    runs, first = pairs(trees, workload, seconds)
    traced = {side: run(trees[side], workload, TRACE_SEED, seconds, 1) for side in SIDES}
    every = {side: [*runs[side], traced[side]] for side in SIDES}
    bad_runs = {side: sum(not (r["correct"] is True and r["failed"] == 0) for r in every[side]) for side in SIDES}
    return {
        "first": first,
        "correct": {side: [r["correct"] for r in every[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in every[side]] for side in SIDES},
        "end_to_end": {m["name"]: {"unit": m["unit"], "bound": m["bound"], **compare(
            *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES),
            m["better"], bad_runs, m["bound"])} for m in end_to_end},
        "per_layer": {side: {name: v["value"] for name, v in traced[side]["metrics"].items()} for side in SIDES},
    }, not any(bad_runs.values())


def git(*args):
    """The standard output of a git command in the repository; a failure raises RuntimeError."""
    res = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} exited {res.returncode}")
    return res.stdout.strip()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare HEAD against")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the worktrees are removed

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-"))
    trees, workloads, ok = {}, {}, True
    try:
        if git("status", "--porcelain", "--untracked-files=no"):
            raise RuntimeError("uncommitted edits: the record measures HEAD, so commit them first")
        commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
                   for side, ref in (("parent", args.parent), ("change", "HEAD"))}
        for side in SIDES:
            git("worktree", "add", "--detach", str(tmp / side), commits[side])
            trees[side] = tmp / side
        for w in (spec["name"] for spec in bench["workloads"]):
            workloads[w], w_ok = workload_record(trees, w, args.seconds, bench["end_to_end"])
            ok &= w_ok
        env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
        kernel_rows = {side: last_line([sys.executable, str(trees["change"] / "scripts" / "kernels.py"),
                                        "--seconds", str(args.seconds / 10)], trees[side], env)
                       for side in SIDES}
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)

    record = {
        "commits": commits,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "settings": {"pairs": PAIRS, "seeds": list(range(1, PAIRS + 1)), "trace_seed": TRACE_SEED,
                     "seconds": args.seconds},
        "workloads": workloads,
        "kernels": kernel_rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    absent = [name for name, row in kernel_rows["change"].items() if "absent" in row]
    if absent:  # only the parent's library may lack a row
        print(f"HEAD cannot build or run the kernel rows {', '.join(absent)}", file=sys.stderr)
        ok = False
    for w, rec in workloads.items():
        for name, m in rec["end_to_end"].items():
            print(f"{w} {name}: parent {m['parent']['median']:.4g}, change {m['change']['median']:.4g} {m['unit']};"
                  f" wins {m['wins']['change']}-{m['wins']['parent']}, {m['verdict']}, {m['regression']}")
    print(f"wrote {args.out}: {'every check passed' if ok else 'A CHECK FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
