#!/usr/bin/env python3
"""Reproduce the built-in example sweeps and write their CSVs.

Runs the shrinking-trapezoid family (whose expected value has an unbounded
derivative at 0 despite the 1-Lipschitz support map), the power wedge at the
two interesting exponents (q = 1.5 diverging, q = 3 bounded), and the rotating
segment, into ``out/`` next to this script.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"


def run(args, dest):
    dest.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "movingbeliefs.cli", *args, "--out", str(dest)]
    print("+", " ".join(cmd))
    res = subprocess.run(cmd)
    print(f"  -> exit {res.returncode}")
    return res.returncode


def main() -> int:
    return max(
        run(["example", "trapezoid", "--grid", "log:1e-6:1:100"], OUT / "trapezoid.csv"),
        run(["example", "qmap", "--q", "1.5"], OUT / "qmap_q15.csv"),
        run(["example", "qmap", "--q", "3"], OUT / "qmap_q3.csv"),
        run(["example", "rotseg"], OUT / "rotseg.csv"),
    )


if __name__ == "__main__":
    raise SystemExit(main())
