#!/usr/bin/env python3
"""Time the geometry and transport kernels at fixed sizes and print one JSON object.

    python3 scripts/kernels.py [--seconds 2]

Run from the root of a checkout: the library comes from ``src/`` and the
workload inputs from ``perfbench/`` of the working directory, not of the
tree this file sits in, so that ``scripts/bench.py`` can run one copy of it
against two commits.  ``scripts/bench.py`` runs it in a child process whose
BLAS/OpenMP pools are pinned to one thread (``perfbench/run.py``'s
``PINNED``).  Each row times one kernel on fixed inputs drawn from one
seed: a sample is a batch of calls timed together, with a reference sample
(``perfbench/refloop.py``) right before and right after it, and is
rescaled by ``refloop.correct`` as the benchmark rescales its operations.
Every call gets fresh copies of its polytopes, so no cached frame, facet,
edge or volume data carries over between calls.  A row reports the median
and quartiles of the corrected microseconds per call over its samples;
each row runs for ``--seconds``.  A row that the checkout's library cannot
build or run is printed as ``{"absent": <the error's type>}``, and the
other rows still run.
"""

import argparse
import dataclasses
import json
import pathlib
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

sys.path[:0] = [str(pathlib.Path.cwd() / "src"), str(pathlib.Path.cwd() / "perfbench")]

import refloop  # noqa: E402
import workloads  # noqa: E402
from movingbeliefs import beliefs, convexsolve, geomkernel as gk, svmaps  # noqa: E402

BATCH = 10
SEED = 31


def polygon(rng, n):
    """n points on a circle at jittered angles: a convex n-gon."""
    a = np.sort(2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n)
    return np.column_stack([np.cos(a), np.sin(a)]) * 0.5 + rng.uniform(0.4, 0.6, 2)


def octagon(X, area):
    """The 8-gon X (``polygon``) scaled about its centre to ``area``."""
    c = X.mean(axis=0)
    return c + (X - c) * np.sqrt(area / gk.volume(gk.from_vrep(X)))


def sphere(rng, n, m=3):
    """n random points on a sphere in m-space: every one a vertex."""
    g = rng.standard_normal((n, m))
    return g / np.linalg.norm(g, axis=1, keepdims=True) * 0.5 + rng.uniform(0.4, 0.6, m)


def fresh(*bodies, tail=()):
    """make_args giving new copies of the polytopes ``bodies``, so that no
    cached property or volume carries over between calls, then ``tail``."""
    return lambda: (*(dataclasses.replace(P, volume_cache=None) for P in bodies), *tail)


def hulls(*clouds, tail=()):
    """``fresh`` on the hulls of ``clouds``."""
    return fresh(*(gk.from_vrep(X) for X in clouds), tail=tail)


def octagon_pair(octagons):
    """make_args of W1 at the finer resolution of the transport workload,
    0.035, between the two octagons scaled to its area 0.05."""
    make = hulls(*(octagon(X, 0.05) for X in octagons))
    return lambda: (beliefs.MeasurePair.make(*make()), 0.035)


def fine_lp(octagons):
    """The arguments that W1 between the octagons passes to its dense LP."""
    lp, real = [], beliefs._transport_lp
    beliefs._transport_lp = lambda *a: lp.append(a) or real(*a)
    try:
        beliefs.w1_distance(*octagon_pair(octagons)())
    finally:
        beliefs._transport_lp = real
    return lp[0]


def sweep_slice():
    """(spec, zero, x): the first spec of the ``sweep`` workload's pool at
    seed 1, drawn by ``workloads.Sweep``, the zero-cost spec of the same
    rows, and the spec's middle parameter value."""
    with tempfile.TemporaryDirectory() as tmp:
        pool = workloads.Sweep(1, tmp).pool[0]
    (A, B, b, c), xs = pool["lower"], pool["xs"]
    spec = svmaps.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=c)
    zero = svmaps.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=np.zeros_like(c))
    return spec, zero, float(xs[1])


def quadratic(C):
    """The quadratic sum over i <= j of C[i, j] z_i z_j in y, z = (1, y)."""
    m = len(C) - 1
    terms = {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            e = [0] * (m + 1)
            e[i] += 1
            e[j] += 1
            terms[tuple(e[1:])] = float(C[i, j])
    return beliefs.Polynomial.from_dict(terms, m)


def rows(rng):
    """(name, build): ``build()`` gives the kernel and ``make_args``, whose
    result is the arguments of one call, built outside the timed region.
    Every draw from ``rng`` happens here and only ``build`` and the kernel
    touch the library, so a row that the checkout's library cannot build
    or run changes no other row or its inputs."""
    for m, n in ((2, 4), (2, 10), (3, 4), (3, 10)):
        X = polygon(rng, n) if m == 2 else sphere(rng, n)
        yield f"from_vrep/{m}d-{n}", lambda X=X: (gk.from_vrep, lambda: (X,))
    for label, (A, B) in (("2d-8gons", (polygon(rng, 8), polygon(rng, 8))),
                          ("3d-10pts", (sphere(rng, 10), sphere(rng, 10)))):
        yield f"intersect/{label}", lambda A=A, B=B: (gk.intersect, hulls(A, B))
        yield f"hausdorff/{label}", lambda A=A, B=B: (gk.hausdorff, hulls(A, B))
        yield (f"minkowski_interpolate/{label}",
               lambda A=A, B=B: (gk.minkowski_interpolate, hulls(A, B, tail=(0.375,))))
        yield f"enclosing_ball/{label}", lambda A=A: (gk.enclosing_ball, hulls(A))
    for m, n in ((2, 2000), (3, 2000), (4, 150)):  # large clouds, uniform in the unit box
        X = rng.random((n, m))
        yield f"from_vrep/{m}d-{n}", lambda X=X: (gk.from_vrep, lambda: (X,))
    # the minimum-norm-point solves: the nearest point of a 4-D body off the
    # origin, and the Hausdorff cases that take them (m >= 4, k < 3 in 3-space)
    X = sphere(rng, 10, 4) + 0.5
    yield "min_norm_point/4d-10", lambda X=X: (convexsolve.min_norm_point, lambda: (X,))
    polygon3 = polygon(rng, 8)
    polygon3 = np.column_stack([polygon3, polygon3 @ rng.uniform(-0.5, 0.5, 2) + 0.5])  # on a tilted plane
    for label, (A, B) in (("4d-12pts", (sphere(rng, 12, 4), sphere(rng, 12, 4))),
                          ("3d-segment-vs-polygon", (polygon3, sphere(rng, 2)))):
        yield f"hausdorff/{label}", lambda A=A, B=B: (gk.hausdorff, hulls(A, B))
    # W1 at the finer resolution of the transport workload: two jittered
    # octagons of its area, and the dense LP of that pair alone
    octagons = [polygon(rng, 8) for _ in range(2)]
    yield "w1_distance/2d-octagons-0.035", lambda: (beliefs.w1_distance, octagon_pair(octagons))
    yield "transport_lp/fine", lambda: (beliefs._transport_lp, lambda a=fine_lp(octagons): a)
    # drawn after the rows above, so that their inputs stay the same: that
    # LP's starting tree alone, on the matrix it sorts (the LP's last
    # argument, the order matrix w1_distance builds), and a 4-D body of 16
    # rows, the unit box cut by 8 random half-spaces at distance 0.3 from
    # its centre
    yield ("least_cost_tree/fine",
           lambda: (beliefs._least_cost_tree, lambda a=fine_lp(octagons): (a[0], a[1], a[-1])))
    N = rng.standard_normal((8, 4))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    M = np.vstack([np.eye(4), -np.eye(4), N])
    q = np.concatenate([np.ones(4), np.zeros(4), N @ np.full(4, 0.5) + 0.3])
    yield "from_hrep/4d-16", lambda: (gk.from_hrep, lambda: (M, q))
    # W1 between overlapping laws, which start from the tree in order of the
    # cost: the q-map's images at x = 0.5 and 0.52, neighbouring points of
    # the grid that `verify w1` compares, at its default resolution
    yield "w1_distance/2d-neighbours", lambda: (beliefs.w1_distance, lambda make=fresh(
        *(svmaps.QMap(q=2.0).evaluate(x) for x in (0.5, 0.52))): (beliefs.MeasurePair.make(*make()),))
    # the exact slices of one `sweep` spec at its middle parameter value
    # (its own draws, so the rows above keep their inputs): the fiber (the
    # zero-cost spec of the same rows), the optimal face and the eps-set,
    # each a clip of the joint enumeration the spec holds
    yield "linear_fiber/fiber", lambda: (svmaps.bilevel_solution, lambda s=sweep_slice(): (s[1], s[2]))
    yield "linear_fiber/face", lambda: (svmaps.bilevel_solution, lambda s=sweep_slice(): (s[0], s[2]))
    yield ("linear_fiber/eps-set",
           lambda: (svmaps.eps_argmin, lambda s=sweep_slice(): (s[0], workloads.Sweep.EPS, s[2])))
    # drawn after all the rows above: volume, Steiner point, the exact
    # expectation of a random quadratic and 500 i.i.d. samples, on an 8-gon
    # and a 10-point 3-D body as in `bodies` and a 150-point 4-D cloud as in
    # `expect4d`
    for label, X in (("2d-8gon", polygon(rng, 8)), ("3d-10pts", sphere(rng, 10)),
                     ("4d-150", rng.standard_normal((150, 4)))):
        C = rng.uniform(-1.0, 1.0, (X.shape[1] + 1,) * 2)
        yield f"volume/{label}", lambda X=X: (gk.volume, hulls(X))
        yield f"steiner_point/{label}", lambda X=X: (gk.steiner_point, hulls(X))
        yield f"expect_neutral/{label}", lambda X=X, C=C: (beliefs.expect_neutral, hulls(X, tail=(quadratic(C),)))
        yield f"sample_uniform/{label}", lambda X=X: (beliefs.sample_uniform, hulls(X, tail=(500, SEED)))


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


def measure(rows, seconds):
    """The record of ``rows``: each row's timing, or ``{"absent": <the
    error's type>}`` when this checkout's library cannot build or run it."""
    record = {}
    for name, build in rows:
        try:
            call, make_args = build()
            samples = time_row(call, make_args, seconds)
        except Exception as exc:  # one row's failure must not end the others
            traceback.print_exc()
            record[name] = {"absent": type(exc).__name__}
            print(f"  {name}: absent ({type(exc).__name__})", file=sys.stderr, flush=True)
            continue
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        record[name] = {"unit": "us", "median": median, "q1": q1, "q3": q3, "samples": len(samples)}
        print(f"  {name}: {median:.1f} us per call", file=sys.stderr, flush=True)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2.0, help="timing budget of each row")
    args = ap.parse_args()
    print(json.dumps(measure(rows(np.random.default_rng(SEED)), args.seconds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
