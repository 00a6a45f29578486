"""LP engine tests: simplex statuses, strong duality, Wolfe projections."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from movingbeliefs import convexsolve as cs
from movingbeliefs.errors import Infeasible, Unbounded

UNIT_SQUARE_M = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
UNIT_SQUARE_Q = np.array([1.0, 0.0, 1.0, 0.0])


def test_min_over_unit_square():
    res = cs.lp_solve(cs.LpProblem(np.array([0.0, 1.0]), UNIT_SQUARE_M, UNIT_SQUARE_Q))
    assert res.status == cs.OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.max(UNIT_SQUARE_M @ res.point - UNIT_SQUARE_Q) <= 1e-9
    assert res.point @ np.array([0.0, 1.0]) == pytest.approx(res.value)


def test_clipped_fiber_value():
    # min y1 over {y1 >= 0.3, y1 <= 1, 0 <= y2 <= 1}: optimum sits on the clip
    M = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    q = np.array([-0.3, 1.0, 1.0, 0.0])
    res = cs.lp_solve(cs.LpProblem(np.array([1.0, 0.0]), M, q))
    assert res.status == cs.OPTIMAL
    assert res.value == pytest.approx(0.3, abs=1e-12)


def test_unbounded_direction():
    res = cs.lp_solve(cs.LpProblem(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0])))
    assert res.status == cs.UNBOUNDED


def test_infeasible_status():
    M = np.array([[1.0], [-1.0]])
    q = np.array([0.0, -1.0])  # y <= 0 and y >= 1
    res = cs.lp_solve(cs.LpProblem(np.array([1.0]), M, q))
    assert res.status == cs.INFEASIBLE


def test_no_constraints():
    assert cs.lp_solve(cs.LpProblem(np.zeros(2), np.zeros((0, 2)), np.zeros(0))).status == cs.OPTIMAL
    assert cs.lp_solve(cs.LpProblem(np.ones(2), np.zeros((0, 2)), np.zeros(0))).status == cs.UNBOUNDED


def test_exact_mode_reports_rationals():
    res = cs.lp_solve(
        cs.LpProblem(np.array([1.0, 0.0]), UNIT_SQUARE_M, UNIT_SQUARE_Q), exact=True
    )
    assert res.status == cs.OPTIMAL
    assert res.exact_value == 0
    assert res.exact_point is not None


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=5),
)
def test_strong_duality_on_random_bounded_instances(seed, m, extra_rows):
    """Primal optimum equals the optimum of the hand-constructed dual:
    min c.y s.t. My <= q  <->  max -q.mu s.t. M^T mu = -c, mu >= 0."""
    rng = np.random.default_rng(seed)
    box_m = np.vstack([np.eye(m), -np.eye(m)])
    box_q = np.full(2 * m, 1.0)
    M = np.vstack([box_m, rng.normal(size=(extra_rows, m))])
    q = np.concatenate([box_q, rng.random(extra_rows) + 0.5])  # keeps 0 feasible
    c = rng.normal(size=m)
    primal = cs.lp_solve(cs.LpProblem(c, M, q))
    assert primal.status == cs.OPTIMAL

    p = M.shape[0]
    # encode the dual as an inequality LP over mu: equalities split in two
    dual_M = np.vstack([M.T, -M.T, -np.eye(p)])
    dual_q = np.concatenate([-c, c, np.zeros(p)])
    dual = cs.lp_solve(cs.LpProblem(q, dual_M, dual_q))
    assert dual.status == cs.OPTIMAL
    assert -dual.value == pytest.approx(primal.value, abs=1e-8)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_exact_and_float_modes_agree(seed):
    rng = np.random.default_rng(seed)
    m = 3
    M = np.vstack([np.eye(m), -np.eye(m), rng.normal(size=(2, m))])
    q = np.concatenate([np.full(2 * m, 1.0), rng.random(2) + 0.5])
    c = rng.normal(size=m)
    a = cs.lp_solve(cs.LpProblem(c, M, q))
    b = cs.lp_solve(cs.LpProblem(c, M, q), exact=True)
    assert a.status == b.status == cs.OPTIMAL
    assert a.value == pytest.approx(b.value, abs=1e-9)


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


@pytest.mark.parametrize("exact", [False, True])
def test_bounding_box_certifies(exact):
    lo, hi = cs.bounding_box(np.vstack([UNIT_SQUARE_M, [[1.0, 1.0]]]), np.append(UNIT_SQUARE_Q, 1.5), exact=exact)
    assert lo.tolist() == [0.0, 0.0]
    assert hi.tolist() == [1.0, 1.0]
    with pytest.raises(Infeasible):
        cs.bounding_box(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]), exact=exact)
    with pytest.raises(Unbounded):
        cs.bounding_box(UNIT_SQUARE_M[:3], UNIT_SQUARE_Q[:3], exact=exact)
