import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def _solve(A, b):
    """The solution of the square Fraction system A y = b, or None when A is
    singular, by Gaussian elimination."""
    n = len(A)
    T = [list(r) + [v] for r, v in zip(A, b)]
    for k in range(n):
        p = next((i for i in range(k, n) if T[i][k] != 0), None)
        if p is None:
            return None
        T[k], T[p] = T[p], T[k]
        for i in range(n):
            if i != k and T[i][k] != 0:
                f = T[i][k] / T[k][k]
                T[i] = [x - f * y for x, y in zip(T[i], T[k])]
    return [T[i][n] / T[i][i] for i in range(n)]


def _brute_vertices(M, q):
    """The vertices of {y : M y <= q} by brute force: the feasible solution
    of every nonsingular d-subset of rows, in Fractions, rounded to floats;
    lexicographically sorted, as ``Polytope.vrep`` is."""
    M = [[Fraction(float(v)) for v in r] for r in np.asarray(M, dtype=float)]
    q = [Fraction(float(v)) for v in np.asarray(q, dtype=float)]
    pts = set()
    for S in itertools.combinations(range(len(M)), len(M[0])):
        y = _solve([M[i] for i in S], [q[i] for i in S])
        if y is not None and all(sum(a * v for a, v in zip(r, y)) <= c for r, c in zip(M, q)):
            pts.add(tuple(float(v) for v in y))
    return np.array(sorted(pts))


@pytest.fixture
def brute_vertices():
    return _brute_vertices
