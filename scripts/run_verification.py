#!/usr/bin/env python3
"""Run all four verification suites, and the bilevel command on the toy
problem, and write their JSON reports to out/ next to this script."""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
PROBLEMS = HERE / "problems"


def run(args, dest):
    dest.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "movingbeliefs.cli", *args, "--out", str(dest)]
    print("+", " ".join(cmd))
    res = subprocess.run(cmd)
    print(f"  -> exit {res.returncode}")
    return res.returncode


def main() -> int:
    return max(
        run(["verify", "body", "--seed", "7"], OUT / "body.json"),
        run(["verify", "tv-bound", str(PROBLEMS / "eps_toy.json")], OUT / "tv_bound.json"),
        run(["verify", "sandwich", "--builtin", "qmap"], OUT / "sandwich.json"),
        run(["verify", "w1", str(PROBLEMS / "w1_toy.json")], OUT / "w1.json"),
        run(["bilevel", str(PROBLEMS / "toy_bilevel.json")], OUT / "bilevel.json"),
    )


if __name__ == "__main__":
    raise SystemExit(main())
