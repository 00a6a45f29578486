"""LP engine tests: simplex statuses, strong duality, Wolfe projections, and
the simplex against a reference implementation, bit for bit."""

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


def test_bounding_box_certifies():
    lo, hi = cs.bounding_box(np.vstack([UNIT_SQUARE_M, [[1.0, 1.0]]]), np.append(UNIT_SQUARE_Q, 1.5))
    assert lo.tolist() == [0.0, 0.0]
    assert hi.tolist() == [1.0, 1.0]
    with pytest.raises(Infeasible):
        cs.bounding_box(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    with pytest.raises(Unbounded):
        cs.bounding_box(UNIT_SQUARE_M[:3], UNIT_SQUARE_Q[:3])


# ---------------------------------------------------------------------------
# the simplex against a reference implementation


def _ref_pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f != 0:
            tab[i] = [a - f * b for a, b in zip(r, prow)]
    basis[row] = col


def _ref_bland(tab, cost, basis, allowed, tol):
    """Bland iterations on rows [A | b] and the reduced-cost row [z | -obj]."""
    nrows = len(tab)
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return cs.OPTIMAL
        leave = -1
        best = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > tol:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return cs.UNBOUNDED
        _ref_pivot(tab, basis, leave, enter)
        f = cost[enter]
        if f != 0:
            prow = tab[leave]
            for j in range(len(cost)):
                cost[j] -= f * prow[j]


def _ref_solve(c, M, q, tol, zero, events):
    """The two-phase Bland simplex on one scalar type; ``events`` records
    what the drive-out of leftover artificials did."""
    m = len(c)
    p = len(q)
    if p == 0:
        if all(v == zero for v in c):
            return cs.OPTIMAL, zero, [zero] * m, ()
        return cs.UNBOUNDED, zero, [zero] * m, ()

    # columns: y+ (m) | y- (m) | slack (p) | artificials (appended as needed)
    ncols = 2 * m + p
    tab = []
    basis = []
    art_cols = []
    for i in range(p):
        row = list(M[i]) + [-v for v in M[i]] + [zero] * p
        rhs = q[i]
        row[2 * m + i] = zero + 1
        if rhs < zero:
            row = [-v for v in row]
            rhs = -rhs
        tab.append(row + [rhs])
        if row[2 * m + i] > zero:  # slack usable as initial basic
            basis.append(2 * m + i)
        else:
            basis.append(-1)
    need_art = [i for i in range(p) if basis[i] < 0]
    for k, i in enumerate(need_art):
        col = ncols + k
        art_cols.append(col)
        basis[i] = col
    ntot = ncols + len(art_cols)
    for i in range(p):
        row = tab[i]
        ext = [zero] * len(art_cols) + [row.pop()]
        tab[i] = row + ext
        if basis[i] >= ncols:
            tab[i][basis[i]] = zero + 1

    if art_cols:
        cost = [zero] * (ntot + 1)
        for col in art_cols:
            cost[col] = zero + 1
        for i in range(p):
            if basis[i] in art_cols:
                f = cost[basis[i]]
                cost = [a - f * b for a, b in zip(cost, tab[i])]
        status = _ref_bland(tab, cost, basis, range(ntot), tol)
        assert status == cs.OPTIMAL  # phase 1 is always bounded
        scale = max((abs(v) for v in (list(q) + [zero])), default=zero)
        if -cost[-1] > tol * (1 + scale):
            return cs.INFEASIBLE, zero, [zero] * m, ()
        # Drive leftover artificials out of the basis; drop redundant rows.
        for i in range(p - 1, -1, -1):
            if basis[i] in art_cols:
                piv = -1
                for j in range(ncols):
                    if abs(tab[i][j]) > tol:
                        piv = j
                        break
                events.append("pivot" if piv >= 0 else "drop")
                if piv >= 0:
                    _ref_pivot(tab, basis, i, piv)
                else:
                    tab.pop(i)
                    basis.pop(i)

    cost = list(c) + [-v for v in c] + [zero] * (len(tab[0]) - 2 * m - 1) + [zero]
    for i in range(len(tab)):
        f = cost[basis[i]]
        if f != 0:
            cost = [a - f * b for a, b in zip(cost, tab[i])]
    status = _ref_bland(tab, cost, basis, range(ncols), tol)
    if status == cs.UNBOUNDED:
        return cs.UNBOUNDED, zero, [zero] * m, tuple(basis)

    z = [zero] * len(tab[0])
    for i, b in enumerate(basis):
        z[b] = tab[i][-1]
    y = [z[j] - z[m + j] for j in range(m)]
    value = sum(ci * yi for ci, yi in zip(c, y))
    return cs.OPTIMAL, value, y, tuple(basis)


def _ref_lp(prob, feas_tol=cs._FEAS_TOL, events=None):
    """lp_solve on the reference simplex: (status, value, point, basis)."""
    events = [] if events is None else events
    c, M, q = (np.asarray(a, dtype=float).tolist() for a in (prob.objective, prob.constraint_matrix, prob.rhs))
    status, value, y, basis = _ref_solve(c, M, q, feas_tol, 0.0, events)
    return status, float(value), [float(v) for v in y], basis


def _result(res):
    return (res.status, res.value, res.point.tolist(), res.basis)


def test_float_pivots_match_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(150):
        m, p = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        M, q, c = rng.standard_normal((p, m)), rng.standard_normal(p), rng.standard_normal(m)
        prob = cs.LpProblem(c, np.vstack([M, np.eye(m), -np.eye(m)]), np.concatenate([q, np.full(2 * m, 2.0)]))
        assert _result(cs.lp_solve(prob)) == _ref_lp(prob)


def test_beale_cycling_example():
    """Beale (1955): the textbook rule cycles here; Bland's rule reaches the
    optimum -5/4 at x = (1, 0, 1, 0), up to the rounding of the pivots."""
    A = [[1 / 4, -8, -1, 9], [1 / 2, -12, -1 / 2, 3], [0, 0, 1, 0]]
    M = A + [[-float(k == j) for k in range(4)] for j in range(4)]
    q = [0, 0, 1] + [0] * 4
    c = [-3 / 4, 20, -1 / 2, 6]
    prob = cs.LpProblem(np.array(c), np.array(M), np.array(q))
    res = cs.lp_solve(prob)
    assert _result(res) == _ref_lp(prob)
    assert res.point == pytest.approx([1, 0, 1, 0], abs=1e-15)
    assert res.value == pytest.approx(-5 / 4, abs=1e-15)


@pytest.mark.parametrize(
    "c,M,q,status",
    [
        ([1], [[1], [-1]], [1 / 3, -1 / 2], cs.INFEASIBLE),  # y <= 1/3 and y >= 1/2
        ([1, 1], [[-1, 0], [0, -1], [1, 1]], [-1 / 3, 0, 1 / 7], cs.INFEASIBLE),
        ([-1, 0], [[-1, 0], [0, 1], [0, -1]], [1 / 3, 1, 0], cs.UNBOUNDED),
        ([0, -1], [[-1, 0], [1, -1]], [-2 / 3, 0], cs.UNBOUNDED),  # needs phase 1 first
    ],
)
def test_integer_pivots_infeasible_and_unbounded(c, M, q, status):
    """Infeasible and unbounded statuses, from phase 1 and from phase 2, on
    small rational data rounded to floats."""
    prob = cs.LpProblem(*(np.array(a, dtype=float) for a in (c, M, q)))
    res = cs.lp_solve(prob)
    assert res.status == status
    assert _result(res) == _ref_lp(prob)


@pytest.mark.parametrize(
    "M,q",
    [
        ([[-2, -1], [2, 0], [1, 0], [0, 1]], [0, -2, 2, 2]),
        ([[-2, -1], [2, 0], [2, 0], [1, 0], [0, 1]], [0, -2, -2, 2, 2]),  # a repeated row
    ],
)
def test_integer_pivots_drive_out_artificials(M, q):
    """Phase 1 ends degenerate with artificials basic at level 0, and the
    drive-out pivots them out through real columns.  (The reference's other
    branch, the drop of a row with no entry above ``feas_tol`` on the real
    columns, never runs: every row owns a slack column.)"""
    for c in ([1, 1], [1, -1], [-1, 0], [0, 1]):
        prob = cs.LpProblem(*(np.array(a, dtype=float) for a in (c, M, q)))
        events = []
        want = _ref_lp(prob, events=events)
        assert events and set(events) == {"pivot"}
        assert _result(cs.lp_solve(prob)) == want
