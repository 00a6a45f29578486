import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    derandomize=True,
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


def _brute_fractions(M, q) -> set:
    """The vertices of {y : M y <= q} by brute force, in Fractions: the
    feasible solution of every nonsingular d-subset of rows.  The entries of
    M and q are floats or Fractions, read exactly."""
    M = [[Fraction(v) for v in r] for r in np.asarray(M, dtype=object)]
    q = [Fraction(v) for v in q]
    pts = set()
    for S in itertools.combinations(range(len(M)), len(M[0])):
        y = _solve([M[i] for i in S], [q[i] for i in S])
        if y is not None and all(sum(a * v for a, v in zip(r, y)) <= c for r, c in zip(M, q)):
            pts.add(tuple(y))
    return pts


def _brute_vertices(M, q):
    """``_brute_fractions``, each vertex rounded to floats; lexicographically
    sorted, as ``Polytope.vrep`` is."""
    return np.array(sorted({tuple(float(v) for v in y) for y in _brute_fractions(M, q)}))


@pytest.fixture
def brute_vertices():
    return _brute_vertices


@pytest.fixture
def brute_fractions():
    return _brute_fractions
