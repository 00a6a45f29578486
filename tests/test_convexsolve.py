"""Minimum-norm point tests: closed cases, a grid-search oracle, an exact
oracle in Fractions, the variational-inequality certificate and the
solver's iteration cap; the HiGHS equality LP's refusals and starting
bases."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movingbeliefs import convexsolve as cs
from movingbeliefs.errors import SolverStall


class TestMinNormPoint:
    def test_symmetric_pair(self):
        p = cs.min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert p == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_nearest_vertex_when_segment_points_away(self):
        # min over conv{(2,0),(3,1)} of |(2,0)+t(1,1)|^2: derivative 4+4t > 0 on [0,1]
        p = cs.min_norm_point(np.array([[2.0, 0.0], [3.0, 1.0]]))
        assert p == pytest.approx([2.0, 0.0], abs=1e-9)

    def test_hull_containing_origin(self):
        p = cs.min_norm_point(np.array([[1.0, 1.0], [-1.0, 0.5], [0.0, -2.0]]))
        assert np.linalg.norm(p) < 1e-7

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_dense_grid_search(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(4, 2)) + rng.normal(size=2)
        x = cs.min_norm_point(pts)
        # oracle: dense barycentric grid over the hull
        best = np.inf
        ticks = np.linspace(0.0, 1.0, 21)
        for a in ticks:
            for b in ticks:
                for c in ticks:
                    d = 1.0 - a - b - c
                    if d < -1e-12:
                        continue
                    y = a * pts[0] + b * pts[1] + c * pts[2] + max(d, 0.0) * pts[3]
                    best = min(best, float(np.linalg.norm(y)))
        assert np.linalg.norm(x) <= best + 0.15  # grid resolution slack
        # certificate: variational inequality against every vertex
        assert np.min(pts @ x) >= x @ x - 1e-7 * (1 + np.abs(pts).max() ** 2)

    @settings(max_examples=200)
    @given(
        grid=st.integers(2, 4).flatmap(
            lambda m: st.lists(st.lists(st.integers(-8, 24), min_size=m, max_size=m), min_size=1, max_size=m + 3)
        ),
        j=st.integers(-20, 20),
    )
    def test_matches_the_exact_minimum_norm_point(self, grid, j, solve_fractions):
        """Dyadic vertex sets, shifted off the origin or around it and scaled
        by 2^j: within 1e-12 u of the exact minimum-norm point."""
        V = np.ldexp(np.array(grid, dtype=float), j - 3)
        want = _exact_min_norm_point(V, solve_fractions)
        x = cs.min_norm_point(V)
        assert np.linalg.norm(x - want) <= 1e-12 * cs._unit(V)

    def test_hull_holding_the_origin_near_a_vertex(self):
        """The origin is in the hull, with weight 1 - 1e-10 on the vertex
        (1e-10, 0, 0) and 1e-10 on the others: the point is the origin, not
        that vertex."""
        V = np.array([[1e-10, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 1.0], [-1.0, -1.0, -1.0]])
        assert np.linalg.norm(cs.min_norm_point(V)) <= 1e-15

    def test_iteration_cap_is_a_solver_stall(self, monkeypatch):
        def capped(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(cs, "nnls", capped)
        with pytest.raises(SolverStall, match="Maximum number of iterations"):
            cs.min_norm_point(np.array([[2.0, 0.0], [3.0, 1.0]]))


def _exact_min_norm_point(V, solve):
    """The minimum-norm point of conv(V), exactly: it is the least-norm point
    of the affine hull of some affinely independent subset S of at most
    m + 1 vertices, with weights >= 0 (Caratheodory on its face).  For each
    S the KKT system [2G 1; 1^T 0] (lambda, mu) = (0, 1), G the Gram matrix
    of S, is solved in Fractions (it is singular exactly when S is affinely
    dependent); among the solutions with lambda >= 0 the least norm wins."""
    W = [[Fraction(v) for v in row] for row in V.tolist()]
    best, best_sq = None, None
    for k in range(1, len(W[0]) + 2):
        for S in itertools.combinations(W, k):
            A = [[2 * sum(a * b for a, b in zip(p, q)) for q in S] + [Fraction(1)] for p in S]
            sol = solve(A + [[Fraction(1)] * k + [Fraction(0)]], [Fraction(0)] * k + [Fraction(1)])
            if sol is None or min(sol[:k]) < 0:
                continue
            x = [sum(w * p[i] for w, p in zip(sol, S)) for i in range(len(W[0]))]
            sq = sum(c * c for c in x)
            if best_sq is None or sq < best_sq:
                best, best_sq = x, sq
    return np.array([float(c) for c in best])


class TestEqualityLp:
    def test_refused_model_is_a_solver_stall(self):
        """A row index beyond the one row: HiGHS refuses the model (status
        kError), and the refusal is named."""
        with pytest.raises(SolverStall, match="HiGHS status kError"):
            cs.equality_lp(np.ones(2), np.array([0, 1, 2]), np.array([0, 5]), np.ones(2), np.array([1.0]))

    @pytest.mark.parametrize("basic", [(), (0, 5), (0, 1, 4, 5)], ids=["slack", "partial", "tree"])
    def test_any_starting_basis_gives_the_optimum(self, basic):
        """A 2 x 3 transportation LP (its last column row dropped) from the
        slack basis, from two arcs of a spanning tree, which HiGHS completes
        with row slacks, and from the whole tree: the optimum is 0.3 each
        time, to HiGHS's 1e-7 (the plan sends 0.5 and 0.2 at cost 0 and 0.3
        at cost 1)."""
        cost = np.array([0.0, 1.0, 2.0, 1.0, 3.0, 0.0])  # flat 2 x 3, arc i 3 + j
        start = np.array([0, 2, 4, 5, 7, 9, 10])
        index = np.array([0, 2, 0, 3, 0, 1, 2, 1, 3, 1])
        b = np.array([0.8, 0.2, 0.5, 0.3])  # row masses 0.8, 0.2; column masses 0.5, 0.3 (and 0.2)
        assert cs.equality_lp(cost, start, index, np.ones(10), b, basic) == pytest.approx(0.3, abs=1e-7)
