"""Re-measure the ROADMAP's reference kernel timings under the benchmark's
settings (one BLAS/OpenMP thread, drift correction by refloop.py).

    python3 perfbench/baselines.py

Prints one line per kernel: median raw and corrected seconds over REPEATS
calls.  These numbers are for reference only; they are not benchmark
metrics.
"""

from __future__ import annotations

import os
import statistics
import sys

from run import PINNED

os.environ.update(PINNED)

import numpy as np  # noqa: E402

import refloop  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from movingbeliefs import beliefs as bl  # noqa: E402
from movingbeliefs import geomkernel as gk  # noqa: E402

REPEATS = 3


def timed(fn):
    import time

    raw, corrected = [], []
    for _ in range(REPEATS):
        before = refloop.reference_sample()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        after = refloop.reference_sample()
        raw.append(dt)
        corrected.append(refloop.correct(dt, before, after))
    return statistics.median(raw), statistics.median(corrected)


def main():
    rng = np.random.default_rng(0)
    cloud2, cloud3 = rng.random((2000, 2)), rng.random((2000, 3))
    pair = bl.MeasurePair.make(gk.from_vrep(rng.random((8, 2))), gk.from_vrep(rng.random((8, 2))))
    body4 = gk.from_vrep(rng.standard_normal((60, 4)))
    cases = {
        "from_vrep, 2000 points, 2-D": lambda: gk.from_vrep(cloud2),
        "from_vrep, 2000 points, 3-D": lambda: gk.from_vrep(cloud3),
        "w1_distance, random planar pair, resolution 0.05": lambda: bl.w1_distance(pair, 0.05),
        "sample_uniform, 20000 hit-and-run points, 4-D": lambda: bl.sample_uniform(body4, 20000, 1),
    }
    for label, fn in cases.items():
        raw, corr = timed(fn)
        print(f"{label}: raw {raw:.3f} s, corrected {corr:.3f} s (median of {REPEATS})")


if __name__ == "__main__":
    main()
