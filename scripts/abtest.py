#!/usr/bin/env python3
"""Run one benchmark workload on two commits in alternating pairs and write one JSON record.

    python3 scripts/abtest.py --parent REF [--change HEAD] --workload sweep --out AB_<n>.json

Both commits are checked out with ``git worktree add --detach`` into a
temporary directory (no network), and the worktrees are removed on exit, also
on an error or SIGTERM.  Pair i = 1..10 runs each side's unchanged
``perfbench/run.py --workload W --seed i --trace 0`` for BENCHMARK.json's
``run_seconds``; the parent goes first in odd pairs, the change in even ones.
For every end-to-end metric of BENCHMARK.json the record holds each side's
median, quartiles and per-pair values, the pairs each side won (a tie counts
for neither), the gap between the medians, the parent's quartile spread and
the verdict (``compare``).  Exit code 0 when every run is correct with no
failed operation, 1 when one is not (the record is written either way), 3
when git or a run failed.
"""

import argparse
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs on which a gain can be read

sys.path.insert(0, str(ROOT / "scripts"))
import bench  # noqa: E402


def compare(parent, change, better, bad_runs):
    """Each side's spread, wins and the verdict on per-pair values of one
    metric, ``better`` "lower" or "higher"; ``bad_runs`` maps each side to
    the number of its runs that were not correct or had a failed operation.  The verdict
    is "gain" only when there are at least PAIRS pairs, the change has no
    more bad runs than the parent, it wins at least nine tenths of the
    pairs, ties counting for neither side, and its median is better than the
    parent's by more than the parent's quartile spread q3 - q1; else "no
    gain"."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (p - c) for p, c in zip(parent, change, strict=True)]  # > 0: the change won
    wins = {"change": sum(x > 0 for x in diffs), "parent": sum(x < 0 for x in diffs)}
    sides = {"parent": bench.spread(parent), "change": bench.spread(change)}
    gap = sides["change"]["median"] - sides["parent"]["median"]
    parent_spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    gain = (len(diffs) >= PAIRS and bad_runs["change"] <= bad_runs["parent"]
            and 10 * wins["change"] >= 9 * len(diffs) and -sign * gap > parent_spread)
    return {**sides, "better": better, "wins": wins, "gap": gap, "parent_spread": parent_spread,
            "verdict": "gain" if gain else "no gain"}


def git(*args):
    """The standard output of a git command in the repository; a failure raises RuntimeError."""
    out = bench.git(*args)
    if out is None:
        raise RuntimeError(f"git {' '.join(args)} failed")
    return out


def pairs(trees, workload, seconds):
    """The runs of both sides for pairs 1..PAIRS, each side's list in pair
    order, and which side went first in each pair."""
    runs, first = {side: [] for side in SIDES}, []
    for i in range(1, PAIRS + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            print(f"pair {i}, {side}:", flush=True)
            runs[side].append(bench.run(workload, i, seconds, 0, cwd=trees[side]))
    return runs, first


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--change", default="HEAD", help="the commit under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that the worktrees are removed

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="abtest-"))
    trees = {}
    try:
        commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
                   for side, ref in (("parent", args.parent), ("change", args.change))}
        for side in SIDES:
            git("worktree", "add", "--detach", str(tmp / side), commits[side])
            trees[side] = tmp / side
        runs, first = pairs(trees, args.workload, bench_spec["run_seconds"])
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)

    bad_runs = {side: sum(not (r["correct"] is True and r["failed"] == 0) for r in runs[side]) for side in SIDES}
    record = {
        "commits": commits,
        "workload": args.workload,
        "settings": {"pairs": PAIRS, "seconds": bench_spec["run_seconds"], "seeds": list(range(1, PAIRS + 1))},
        "first": first,
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "end_to_end": {m["name"]: {"unit": m["unit"], **compare(
            *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES), m["better"], bad_runs)}
            for m in bench_spec["end_to_end"]},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["end_to_end"].items():
        print(f"{name}: parent {m['parent']['median']:.4g}, change {m['change']['median']:.4g} {m['unit']}; "
              f"wins {m['wins']['change']}-{m['wins']['parent']}, {m['verdict']}")
    ok = not any(bad_runs.values())
    print(f"wrote {args.out}: {'every run correct' if ok else 'A RUN FAILED ITS CHECKS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
