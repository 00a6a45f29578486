#!/usr/bin/env python3
"""Time the geometry and transport kernels at fixed sizes and print one JSON object.

    python3 scripts/kernels.py [--seconds 2]

``scripts/bench.py`` runs this in a child process whose BLAS/OpenMP pools
are pinned to one thread (``perfbench/run.py``'s ``PINNED``).  Each row
times one kernel on fixed inputs drawn from one seed: a sample is a batch
of calls timed together, with a reference sample (``perfbench/refloop.py``)
right before and right after it, and is rescaled by ``refloop.correct`` as
the benchmark rescales its operations.  Every call gets fresh copies of its
polytopes, so no cached frame, facet or edge data carries over between
calls.  A row reports the median and quartiles of the corrected
microseconds per call over its samples; each row runs for ``--seconds``.
"""

import argparse
import dataclasses
import json
import pathlib
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import refloop  # noqa: E402
import workloads  # noqa: E402
from movingbeliefs import beliefs, convexsolve, geomkernel as gk, svmaps  # noqa: E402

BATCH = 10
SEED = 31


def polygon(rng, n):
    """n points on a circle at jittered angles: a convex n-gon."""
    a = np.sort(2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n)
    return np.column_stack([np.cos(a), np.sin(a)]) * 0.5 + rng.uniform(0.4, 0.6, 2)


def octagon(rng, area):
    """A jittered 8-gon (``polygon``) scaled about its centre to ``area``."""
    X = polygon(rng, 8)
    c = X.mean(axis=0)
    return c + (X - c) * np.sqrt(area / gk.volume(gk.from_vrep(X)))


def sphere(rng, n, m=3):
    """n random points on a sphere in m-space: every one a vertex."""
    g = rng.standard_normal((n, m))
    return g / np.linalg.norm(g, axis=1, keepdims=True) * 0.5 + rng.uniform(0.4, 0.6, m)


def rows(rng):
    """(name, call, make_args): ``make_args()`` gives the arguments of one
    call, built outside the timed region."""
    fresh = dataclasses.replace  # a new Polytope: no cached property carries over
    out = []
    for m, n in ((2, 4), (2, 10), (3, 4), (3, 10)):
        X = polygon(rng, n) if m == 2 else sphere(rng, n)
        out.append((f"from_vrep/{m}d-{n}", gk.from_vrep, lambda X=X: (X,)))
    for label, (A, B) in (("2d-8gons", (polygon(rng, 8), polygon(rng, 8))),
                          ("3d-10pts", (sphere(rng, 10), sphere(rng, 10)))):
        P, Q = gk.from_vrep(A), gk.from_vrep(B)
        pair = lambda P=P, Q=Q: (fresh(P), fresh(Q))  # noqa: E731
        out.append((f"intersect/{label}", gk.intersect, pair))
        out.append((f"hausdorff/{label}", gk.hausdorff, pair))
        out.append((f"minkowski_interpolate/{label}", gk.minkowski_interpolate,
                    lambda P=P, Q=Q: (fresh(P), fresh(Q), 0.375)))
        out.append((f"enclosing_ball/{label}", gk.enclosing_ball, lambda P=P: (fresh(P),)))
    for m, n in ((2, 2000), (3, 2000), (4, 150)):  # large clouds, uniform in the unit box
        X = rng.random((n, m))
        out.append((f"from_vrep/{m}d-{n}", gk.from_vrep, lambda X=X: (X,)))
    # the minimum-norm-point solves: the nearest point of a 4-D body off the
    # origin, and the Hausdorff cases that take them (m >= 4, k < 3 in 3-space)
    X = sphere(rng, 10, 4) + 0.5
    out.append(("min_norm_point/4d-10", convexsolve.min_norm_point, lambda X=X: (X,)))
    polygon3 = polygon(rng, 8)
    polygon3 = np.column_stack([polygon3, polygon3 @ rng.uniform(-0.5, 0.5, 2) + 0.5])  # on a tilted plane
    for label, (A, B) in (("4d-12pts", (sphere(rng, 12, 4), sphere(rng, 12, 4))),
                          ("3d-segment-vs-polygon", (polygon3, sphere(rng, 2)))):
        P, Q = gk.from_vrep(A), gk.from_vrep(B)
        out.append((f"hausdorff/{label}", gk.hausdorff, lambda P=P, Q=Q: (fresh(P), fresh(Q))))
    # W1 at the finer resolution of the transport workload: two jittered
    # octagons of its area 0.05, and the dense LP of that pair alone
    P, Q = (gk.from_vrep(octagon(rng, 0.05)) for _ in range(2))
    pair = lambda P=P, Q=Q: (beliefs.MeasurePair.make(fresh(P), fresh(Q)), 0.035)  # noqa: E731
    out.append(("w1_distance/2d-octagons-0.035", beliefs.w1_distance, pair))
    lp, real = [], beliefs._transport_lp
    beliefs._transport_lp = lambda *a: lp.append(a) or real(*a)
    try:
        beliefs.w1_distance(*pair())
    finally:
        beliefs._transport_lp = real
    out.append(("transport_lp/fine", real, lambda a=lp[0]: a))
    # drawn after the rows above, so that their inputs stay the same: that
    # LP's starting tree alone, on the matrix it sorts (the LP's last
    # argument, the order matrix w1_distance builds), and a 4-D body of 16
    # rows, the unit box cut by 8 random half-spaces at distance 0.3 from
    # its centre
    a, b, order = lp[0][0], lp[0][1], lp[0][-1]
    out.append(("least_cost_tree/fine", beliefs._least_cost_tree, lambda a=a, b=b, order=order: (a, b, order)))
    N = rng.standard_normal((8, 4))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    M = np.vstack([np.eye(4), -np.eye(4), N])
    q = np.concatenate([np.ones(4), np.zeros(4), N @ np.full(4, 0.5) + 0.3])
    out.append(("from_hrep/4d-16", gk.from_hrep, lambda M=M, q=q: (M, q)))
    # W1 between overlapping laws, which start from the tree in order of the
    # cost: the q-map's images at x = 0.5 and 0.52, neighbouring points of
    # the grid that `verify w1` compares, at its default resolution
    P, Q = (svmaps.QMap(q=2.0).evaluate(x) for x in (0.5, 0.52))
    out.append(("w1_distance/2d-neighbours", beliefs.w1_distance,
                lambda P=P, Q=Q: (beliefs.MeasurePair.make(fresh(P), fresh(Q)),)))
    # the exact slices of one `sweep` spec, the first of the workload's pool
    # at seed 1 (its own draws, so the rows above keep their inputs), at its
    # middle parameter value: the fiber (the zero-cost spec of the same
    # rows), the optimal face and the eps-set, each a clip of the joint
    # enumeration the spec holds
    with tempfile.TemporaryDirectory() as tmp:
        (A, B, b, c), xs = (workloads.Sweep(1, tmp).pool[0][k] for k in ("lower", "xs"))
    spec = svmaps.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=c)
    zero = svmaps.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=np.zeros_like(c))
    x = float(xs[1])
    out.append(("linear_fiber/fiber", svmaps.bilevel_solution, lambda: (zero, x)))
    out.append(("linear_fiber/face", svmaps.bilevel_solution, lambda: (spec, x)))
    out.append(("linear_fiber/eps-set", svmaps.eps_argmin, lambda: (spec, workloads.Sweep.EPS, x)))
    return out


def time_row(call, make_args, seconds):
    """Corrected microseconds per call, one value per batch, for ``seconds``."""
    call(*make_args())  # warm-up
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(samples) < 5:
        args = [make_args() for _ in range(BATCH)]
        before = refloop.reference_sample()
        t0 = time.perf_counter()
        for a in args:
            call(*a)
        raw = time.perf_counter() - t0
        after = refloop.reference_sample()
        samples.append(1e6 * refloop.correct(raw, before, after) / BATCH)
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2.0, help="timing budget of each row")
    args = ap.parse_args()
    record = {}
    for name, call, make_args in rows(np.random.default_rng(SEED)):
        samples = time_row(call, make_args, args.seconds)
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        record[name] = {"unit": "us", "median": median, "q1": q1, "q3": q3, "samples": len(samples)}
        print(f"  {name}: {median:.1f} us per call", file=sys.stderr, flush=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
