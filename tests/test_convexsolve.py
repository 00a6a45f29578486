"""Wolfe minimum-norm point tests: closed cases, a grid-search oracle and
the variational-inequality certificate; the HiGHS equality LP's refusals."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


class TestEqualityLp:
    def test_refused_model_is_a_solver_stall(self):
        """A row index beyond the one row: HiGHS refuses the model (status
        kError), and the refusal is named."""
        with pytest.raises(SolverStall, match="HiGHS status kError"):
            cs.equality_lp(np.ones(2), np.array([0, 1, 2]), np.array([0, 5]), np.ones(2), np.array([1.0]))
