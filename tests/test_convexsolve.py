"""LP engine tests: simplex statuses, strong duality, Wolfe projections, and
the integer-pivot exact simplex against a Fraction reference."""

from fractions import Fraction

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


# ---------------------------------------------------------------------------
# the integer tableau against a reference simplex in Fraction (and float) arithmetic


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
    """The two-phase Bland simplex on one scalar type (float or Fraction);
    ``events`` records what the drive-out of leftover artificials did."""
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


def _ref_lp(prob, exact=False, feas_tol=cs._FEAS_TOL, events=None):
    """lp_solve on the reference simplex, Fractions when ``exact``:
    (status, value, point, basis, exact_value, exact_point)."""
    events = [] if events is None else events
    if exact:
        c = [Fraction(v) for v in prob.objective.tolist()]
        M = [[Fraction(v) for v in row] for row in prob.constraint_matrix.tolist()]
        q = [Fraction(v) for v in prob.rhs.tolist()]
        status, value, y, basis = _ref_solve(c, M, q, Fraction(0), Fraction(0), events)
        opt = status == cs.OPTIMAL
        return (status, float(value), [float(v) for v in y], basis,
                value if opt else None, tuple(y) if opt else None)
    c, M, q = (np.asarray(a, dtype=float).tolist() for a in (prob.objective, prob.constraint_matrix, prob.rhs))
    status, value, y, basis = _ref_solve(c, M, q, feas_tol, 0.0, events)
    return status, float(value), [float(v) for v in y], basis, None, None


def _result(res):
    return (res.status, res.value, res.point.tolist(), res.basis, res.exact_value, res.exact_point)


def _rational_lp(rng, m, p, redundant):
    """Rows around a box, some with negative right-hand sides, entries in
    small rationals; ``redundant`` repeats and rescales some rows."""
    den = rng.choice([1, 2, 3, 4, 7], (p, m + 1))
    num = rng.integers(-6, 7, (p, m + 1))
    M = [[Fraction(int(a), int(b)) for a, b in zip(num[i, :m], den[i, :m])] for i in range(p)]
    q = [Fraction(int(num[i, m]), int(den[i, m])) for i in range(p)]
    M += [[Fraction(int(k == j) * s) for k in range(m)] for j in range(m) for s in (1, -1)]
    q += [Fraction(3)] * (2 * m)
    if redundant:
        for i in rng.integers(0, len(M), 2):
            f = Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            M.append([f * v for v in M[i]])
            q.append(f * q[i])
    c = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-5, 6, m), rng.choice([1, 2, 3, 5], m))]
    return cs.LpProblem(*(np.array(a, dtype=object) for a in (c, M, q)))


@pytest.mark.parametrize("redundant", (False, True))
def test_integer_pivots_match_fraction_reference(redundant):
    """Status, basis, exact value and exact point equal the Fraction solve
    on random rational LPs, feasible or not."""
    rng = np.random.default_rng(31 + redundant)
    statuses = set()
    for _ in range(150):
        prob = _rational_lp(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)), redundant)
        want = _ref_lp(prob, exact=True)
        assert _result(cs.lp_solve(prob, exact=True)) == want
        statuses.add(want[0])
    assert statuses == {cs.OPTIMAL, cs.INFEASIBLE}


def test_float_pivots_match_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(150):
        m, p = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        M, q, c = rng.standard_normal((p, m)), rng.standard_normal(p), rng.standard_normal(m)
        prob = cs.LpProblem(c, np.vstack([M, np.eye(m), -np.eye(m)]), np.concatenate([q, np.full(2 * m, 2.0)]))
        assert _result(cs.lp_solve(prob)) == _ref_lp(prob)


def test_beale_cycling_example():
    """Beale (1955): the textbook rule cycles here; Bland's rule reaches the
    optimum -5/4 at x = (1, 0, 1, 0) in both arithmetics."""
    F = Fraction
    A = [[F(1, 4), F(-8), F(-1), F(9)], [F(1, 2), F(-12), F(-1, 2), F(3)], [F(0), F(0), F(1), F(0)]]
    M = A + [[F(-int(k == j)) for k in range(4)] for j in range(4)]
    q = [F(0), F(0), F(1)] + [F(0)] * 4
    c = [F(-3, 4), F(20), F(-1, 2), F(6)]
    prob = cs.LpProblem(np.array(c, dtype=object), np.array(M, dtype=object), np.array(q, dtype=object))
    res = cs.lp_solve(prob, exact=True)
    assert _result(res) == _ref_lp(prob, exact=True)
    assert res.exact_value == F(-5, 4) and res.exact_point == (1, 0, 1, 0)


@pytest.mark.parametrize(
    "c,M,q,status",
    [
        ([1], [[1], [-1]], [Fraction(1, 3), Fraction(-1, 2)], cs.INFEASIBLE),  # y <= 1/3 and y >= 1/2
        ([1, 1], [[-1, 0], [0, -1], [1, 1]], [Fraction(-1, 3), 0, Fraction(1, 7)], cs.INFEASIBLE),
        ([-1, 0], [[-1, 0], [0, 1], [0, -1]], [Fraction(1, 3), 1, 0], cs.UNBOUNDED),
        ([0, -1], [[-1, 0], [1, -1]], [Fraction(-2, 3), 0], cs.UNBOUNDED),  # needs phase 1 first
    ],
)
def test_integer_pivots_infeasible_and_unbounded(c, M, q, status):
    prob = cs.LpProblem(*(np.vectorize(Fraction, otypes=[object])(a) for a in (c, M, q)))
    res = cs.lp_solve(prob, exact=True)
    assert res.status == status
    assert _result(res) == _ref_lp(prob, exact=True)


@pytest.mark.parametrize(
    "M,q",
    [
        ([[-2, -1], [2, 0], [1, 0], [0, 1]], [0, -2, 2, 2]),
        ([[-2, -1], [2, 0], [2, 0], [1, 0], [0, 1]], [0, -2, -2, 2, 2]),  # a repeated row
    ],
)
def test_integer_pivots_drive_out_artificials(M, q):
    """Phase 1 ends degenerate with artificials basic at level 0, and the
    drive-out pivots them out through real columns.  (Its other branch, the
    drop of an all-zero row, cannot run in exact arithmetic: every row owns
    a slack column, so the real part of a tableau row is never zero.)"""
    to_q = np.vectorize(Fraction, otypes=[object])
    for c in ([1, 1], [1, -1], [-1, 0], [0, 1]):
        prob = cs.LpProblem(to_q(c), to_q(M), to_q(q))
        events = []
        want = _ref_lp(prob, exact=True, events=events)
        assert events and set(events) == {"pivot"}
        assert _result(cs.lp_solve(prob, exact=True)) == want
