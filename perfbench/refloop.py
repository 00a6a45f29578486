"""Reference loop used to cancel machine drift out of the benchmark's timings.

The loop does the kind of work the library spends its time on: Python-level
iteration over small numpy arrays (norms, a small SVD, a matrix product,
argsort, float conversions).  It imports nothing from movingbeliefs, so a
change to the library cannot change it.

A timed operation of ``raw`` seconds, with reference samples ``before`` and
``after`` taken right around it, is reported as

    raw * NOMINAL_REF_S / ((before + after) / 2)

i.e. rescaled to a machine on which one reference sample takes exactly
NOMINAL_REF_S.  How the constant was measured is written in README.md.
"""

from __future__ import annotations

import time

import numpy as np

# Median of 2000 reference samples (20 fresh processes x 100 samples, each
# process pinned to one BLAS/OpenMP thread) on the 2-core VM the benchmark
# was written on; see README.md, "Reference loop".
NOMINAL_REF_S = 1.018e-3

_A = np.array(
    [[1.0, 0.2, 0.1], [0.3, 1.1, 0.4], [0.2, 0.5, 0.9], [0.7, 0.1, 0.6]]
)
_REPS = 32
_TRIES = 3


def _loop() -> float:
    acc = 0.0
    for i in range(_REPS):
        B = _A * (1.0 + 1e-3 * i)
        n = np.linalg.norm(B, axis=1)
        o = np.argsort(n, kind="stable")
        s = np.linalg.svd(B, compute_uv=False)
        acc += float(s[0]) + float(n[o[0]]) + float(np.max(B @ B[0]))
        for j, v in enumerate(B[:, 0].tolist()):
            acc += v * j
    return acc


def reference_sample() -> float:
    """Seconds for one pass of the loop: the fastest of a few tries, so that a
    single interrupt does not masquerade as a slower machine."""
    best = float("inf")
    for _ in range(_TRIES):
        t = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t)
    return best


def correct(raw_s: float, before_s: float, after_s: float) -> float:
    """Rescale a raw duration to the nominal machine speed."""
    return raw_s * NOMINAL_REF_S / (0.5 * (before_s + after_s))
