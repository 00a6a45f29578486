"""Halfspace clipping (geomkernel._clip, and geomkernel._clip_exact through
``_clip_active`` below) against two references: the pairwise clipper, and
the row-at-a-time clipper with Fraction arithmetic and a dedup after every
cutting row; and the exact path's inherited active sets, integer
representation and overflow guard."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from movingbeliefs import geomkernel as gk


def _homogeneous(V):
    """Rows (X, w) of Python ints with V = X / w, w the least common
    denominator of the vertex."""
    rows = []
    for v in V.tolist():
        w = math.lcm(*(Fraction(x).denominator for x in v))
        rows.append([int(x * w) for x in v] + [w])
    return np.array(rows, dtype=object).reshape(len(V), -1)


def _clip_active(V, base_rows, new_rows, tol):
    """(vertices, active matrix) of a clip, or None: a float ``V`` through
    ``_clip`` (no active matrix), a Fraction ``V`` through ``_clip_exact`` on
    homogeneous integer vertices, its result back as Fractions."""
    if V.dtype != object:
        out = gk._clip(V, base_rows, new_rows, tol)
        return None if out is None else (out, None)
    rows = [[gk._int_row(*r) for r in rs] for rs in (base_rows, new_rows)]
    out = gk._clip_exact(_homogeneous(V), *rows)
    if out is None:
        return None
    return np.array([[Fraction(x, h[-1]) for x in h[:-1]] for h in out[0].tolist()], dtype=object), out[1]


def _clip(V, base_rows, new_rows, tol):
    """The vertices of ``_clip_active``, or None."""
    out = _clip_active(V, base_rows, new_rows, tol)
    return None if out is None else out[0]


def _reference_clip(V, base_rows, new_rows, tol):
    """The pairwise clipper: every (inside, outside) pair, with the rank of
    its common active rows recomputed per pair."""
    exact = V.dtype == object
    d = V.shape[1]
    rows = list(base_rows)
    reach = 1 if exact else gk._unit(V)
    if exact:
        tol = 0
    for nrm, off in new_rows:
        nrm = np.asarray(nrm, dtype=V.dtype)
        ln = float(any(nrm)) if exact else float(np.linalg.norm(nrm))
        if ln * reach <= tol:
            if off < -100 * tol:
                return None
            continue
        if not exact:
            nrm = nrm / ln
            off = off / ln
        s = off - V @ nrm
        inside = s > tol
        outside = s < -tol
        if not outside.any():
            rows.append((nrm, off))
            continue
        if outside.all():
            return None
        new_pts = []
        if inside.any():
            N = np.array([r[0] for r in rows])
            C = np.array([r[1] for r in rows])
            G = V @ N.T
            act = G == C if exact else np.abs(G - C) <= 100.0 * tol
            for i in np.nonzero(inside)[0]:
                for j in np.nonzero(outside)[0]:
                    common = act[i] & act[j]
                    if common.sum() >= d - 1 and (d <= 2 or _reference_rank(N[common]) >= d - 1):
                        tcut = s[i] / (s[i] - s[j])
                        new_pts.append(V[i] + tcut * (V[j] - V[i]))
        keep = V[~outside]
        if new_pts:
            keep = np.vstack([keep, np.array(new_pts)])
        if exact:
            V = np.array(list(dict.fromkeys(map(tuple, keep))))
        else:
            V = gk._dedup_points(keep, tol)
        rows.append((nrm, off))
    return V


def _reference_rank(rows):
    if rows.dtype != object:
        sv = np.linalg.svd(rows, compute_uv=False)
        return int(np.sum(sv > 1e-7 * max(1.0, sv[0])))
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(rows.shape[1]):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / prow[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


def _row_dedup_clip(V, base_rows, new_rows, tol):
    """The row-at-a-time clipper: all pairs of a row in one array
    computation, exact rows in Fraction arithmetic with the inherited active
    matrix, float rows with the active matrix and ``_dedup_points`` redone
    after every row that cuts.  Returns (vertices, active matrix or None)."""
    exact = V.dtype == object
    d = V.shape[1]
    N = np.array([r[0] for r in base_rows], dtype=V.dtype).reshape(-1, d)
    C = np.array([r[1] for r in base_rows], dtype=V.dtype)
    reach = 1 if exact else gk._unit(V)
    if exact:
        tol = 0
        act = V @ N.T == C
    for nrm, off in new_rows:
        nrm = np.asarray(nrm, dtype=V.dtype)
        ln = float(any(nrm)) if exact else float(np.linalg.norm(nrm))
        if ln * reach <= tol:
            if off < -100 * tol:
                return None
            continue
        if not exact:
            nrm = nrm / ln
            off = off / ln
        s = off - V @ nrm
        out = s < -tol
        if out.all():
            return None
        if exact or out.any():
            if not exact:
                act = np.abs(V @ N.T - C) <= 100.0 * tol
            I, J = np.nonzero(s > tol)[0], np.nonzero(out)[0]
            common = act[I][:, None] & act[J][None]
            ok = common.sum(axis=2) >= d - 1
            if d > 2 and ok.any():
                cand = common[ok]
                if exact:
                    on_all = cand.astype(np.int64) @ act.T == cand.sum(axis=1)[:, None]
                    ok[ok] = on_all.sum(axis=1) == 2
                else:
                    sv = np.linalg.svd(cand[..., None] * N, compute_uv=False)
                    ok[ok] = np.sum(sv > 1e-7 * np.maximum(1.0, sv[:, :1]), axis=1) >= d - 1
            ii, jj = np.nonzero(ok)
            i, j = I[ii], J[jj]
            keep = np.vstack([V[~out], V[i] + (s[i] / (s[i] - s[j]))[:, None] * (V[j] - V[i])])
            if exact:
                act = np.vstack([np.column_stack([act[~out], s[~out] == 0]),
                                 np.column_stack([common[ii, jj], np.ones(len(i), bool)])])
                V = keep
            else:
                V = gk._dedup_points(keep, tol)
        N, C = np.vstack([N, nrm]), np.append(C, off)
    return V, act if exact else None


def _random_rows(rng, d, kind, exact):
    """Rows cutting [0, 1]^d around its centre: generic, dyadic, a pyramid
    apex with >= 4 facets through it, or a system with duplicated rows."""
    if kind == "generic":
        n = rng.standard_normal((rng.integers(3, 8), d))
        off = n @ np.full(d, 0.5) + rng.uniform(-0.1, 0.5, len(n))
    elif kind == "dyadic":
        n = rng.integers(-2, 3, (rng.integers(3, 8), d)).astype(float)
        off = np.round(4.0 * (n @ np.full(d, 0.5) + rng.uniform(-0.25, 0.75, len(n)))) / 4.0
    elif kind == "apex":  # k >= 4 facets y_d - h (cos, sin) . y_{:2} <= apex height
        k = rng.integers(4, 7)
        ang = 2 * np.pi * np.arange(k) / k
        n = np.zeros((k, d))
        n[:, 0], n[:, 1], n[:, -1] = -np.cos(ang), -np.sin(ang), 1.0
        apex = np.full(d, 0.5)
        apex[-1] = 0.75
        off = n @ apex
    else:  # duplicated: some rows repeated, some repeated scaled by 2
        n = rng.integers(-2, 3, (4, d)).astype(float)
        off = np.round(4.0 * (n @ np.full(d, 0.5) + rng.uniform(0.0, 0.5, 4))) / 4.0
        pick = rng.integers(0, 4, 3)
        scale = np.array([1.0, 2.0, 1.0])[:, None]
        n, off = np.vstack([n, scale * n[pick]]), np.concatenate([off, scale[:, 0] * off[pick]])
    if exact:
        to_q = np.vectorize(Fraction, otypes=[object])
        return list(zip(to_q(n), to_q(off)))
    return list(zip(n, off))


def _box(d, exact):
    """The corners and facet rows of [-1, 2]^d, in Fractions or floats."""
    one = Fraction(1) if exact else 1.0
    eye = np.array([[one * (i == j) for j in range(d)] for i in range(d)])
    rows = [r for e in eye for r in ((e, 2 * one), (-e, one))]
    return np.array(list(itertools.product((-one, 2 * one), repeat=d))), rows


def _wedge():
    """The corners and unit facet rows of the triangle with apex 0 and base
    x = 1, y in [-1e-5, 1e-5]: its apex angle is 2e-5."""
    h = 1e-5
    n = np.array([[1.0, 0.0], [-h, -1.0], [-h, 1.0]])
    n /= np.linalg.norm(n, axis=1)[:, None]
    return np.array([[0.0, 0.0], [1.0, -h], [1.0, h]]), list(zip(n, [1.0, 0.0, 0.0]))


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _same_active(got, want):
    if got is None or want is None:
        return got is None and want is None
    return _same(got[0], want[0]) and (
        got[1] is None and want[1] is None or np.array_equal(got[1], want[1]))


CASES = list(itertools.product((2, 3, 4), ("generic", "dyadic", "apex", "duplicated"), (False, True)))


def _check_clip(V, base, rows, tol):
    """The vertices of the pairwise reference, and the vertices and (exact)
    active matrix of the row-at-a-time reference, array for array."""
    got = _clip_active(V, base, rows, tol)
    assert _same(None if got is None else got[0], _reference_clip(V, base, rows, tol))
    assert _same_active(got, _row_dedup_clip(V, base, rows, tol))


@pytest.mark.parametrize("d,kind,exact", CASES)
def test_clip_matches_pairwise_reference(d, kind, exact):
    tol = gk.DEFAULT_TOL.feas_tol
    rng = np.random.default_rng([d, len(kind), exact])
    for _ in range(6 if exact and d == 4 else 12):
        V, base = _box(d, exact)
        rows = _random_rows(rng, d, kind, exact)
        _check_clip(V, base, rows, tol)
        # chained, as the grid splitter and intersect call it: a clipped
        # vertex array with its nonzero rows, cut again
        head = rows[: len(rows) // 2]
        W = _reference_clip(V, base, head, tol)
        if W is not None:
            base = base + [r for r in head if any(r[0])]
            _check_clip(W, base, _random_rows(rng, d, "dyadic", exact), tol)


@pytest.mark.parametrize("exact", (False, True))
def test_clip_empty_and_zero_rows(exact):
    one = Fraction(1) if exact else 1.0
    V, base = _box(3, exact)
    zero = np.array([0 * one] * 3)
    e0 = np.array([one, 0 * one, 0 * one])
    assert _clip(V, base, [(e0, -5 * one)], 1e-9) is None  # cuts every vertex off
    assert _clip(V, base, [(zero, -one)], 1e-9) is None  # a zero row that holds nowhere
    kept = _clip(V, base, [(zero, one)], 1e-9)  # ... and one that holds everywhere
    assert _same(kept, V)
    assert _same(_clip(V, base, [(e0, 2 * one)], 1e-9), V)  # touches a facet, cuts nothing


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("kind", ("generic", "dyadic", "apex", "duplicated"))
def test_exact_active_sets_stay_recomputed(d, kind):
    """After every row of an exact clip the inherited active matrix equals
    V @ N.T == C recomputed from scratch, and V has no repeated point."""
    rng = np.random.default_rng([d, len(kind), 7])
    for _ in range(4):
        V0, base = _box(d, True)
        rows = _random_rows(rng, d, kind, True)
        for k in range(1, len(rows) + 1):
            out = _clip_active(V0, base, rows[:k], 0.0)
            if out is None:
                break
            V, act = out
            kept = base + [r for r in rows[:k] if any(r[0])]
            N = np.array([r[0] for r in kept])
            C = np.array([r[1] for r in kept])
            assert np.array_equal(act, V @ N.T == C)
            assert len(set(map(tuple, V))) == len(V)


def _non_dyadic_rows(rng, d):
    """Rows from floats such as 0.1 and 1/3, whose exact values have
    denominators near 2**55, around the centre of [0, 1]^d."""
    vals = np.array([0.1, -0.1, 1 / 3, -1 / 3, 0.7, -2 / 3, 1.0])
    n = rng.choice(vals, (rng.integers(3, 7), d))
    off = n @ np.full(d, 0.5) + rng.choice([0.1, 1 / 3, 0.3], len(n))
    to_q = np.vectorize(Fraction, otypes=[object])
    return list(zip(to_q(n), to_q(off)))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_non_dyadic_rows_run_in_python_ints(d):
    """The overflow guard sends rows with huge integers to Python ints
    (object arrays); dyadic rows stay in int64; both agree with Fraction
    arithmetic."""
    rng = np.random.default_rng([d, 13])
    V, base = _box(d, True)
    H, base_int = _homogeneous(V), [gk._int_row(*r) for r in base]
    for _ in range(4):
        rows = _non_dyadic_rows(rng, d)
        out = gk._clip_exact(H, base_int, [gk._int_row(*r) for r in rows])
        assert out is not None and out[0].dtype == object
        assert _same_active(_clip_active(V, base, rows, 0.0), _row_dedup_clip(V, base, rows, 0.0))
        dyadic = [gk._int_row(*r) for r in _random_rows(rng, d, "dyadic", True)]
        assert gk._int_dtype(H, dyadic) is np.int64
        out = gk._clip_exact(H, base_int, dyadic)
        assert out is None or out[0].dtype == np.int64


def test_int_dtype_bound():
    """int64 exactly when |r|_1 * max|H|**2 < 2**62."""
    H = np.array([[2**20, -3, 1]], dtype=object)
    assert gk._int_dtype(H, [[2**22 - 1, 0, 0]]) is np.int64
    assert gk._int_dtype(H, [[2**22 - 1, 0, 1]]) is object
    assert gk._int_dtype(H, [[1, 1, 0], [2**22, 0, 0]]) is object


def test_int_row_is_coprime_and_keeps_the_halfspace():
    nrm, off = np.array([Fraction(3, 4), Fraction(-3, 2)], dtype=object), Fraction(9, 8)
    assert gk._int_row(nrm, off) == [-2, 4, 3]  # -a = (-6, 12)/3, b = 9/3 after scaling by 8
    assert gk._int_row(np.array([0, 0]), -5) == [0, 0, -1]


def test_homogeneous_division_rounds_like_fraction():
    """X / w in floats equals float(Fraction(X, w)), for int64 entries below
    2**53, int64 entries above it, and Python ints of any size."""
    rng = np.random.default_rng(17)
    for bits in (20, 52, 60, 62):
        H = rng.integers(-(2**bits), 2**bits, (40, 4), dtype=np.int64)
        H[:, -1] = np.abs(H[:, -1]) + 1
        big = H.astype(object) * (3**40)
        big[:, -1] += 1
        for A in (H, big):
            want = np.array([[float(Fraction(x, h[-1])) for x in h[:-1]] for h in A.tolist()])
            got = gk._to_float(A)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_float_clip_that_cuts_nothing_keeps_the_input_order():
    V, base = _box(3, False)
    V = V[::-1].copy()  # not in lexicographic order
    rows = [(np.array([1.0, 1.0, 0.0]), 10.0), (np.array([0.0, 0.0, -1.0]), 1.0)]
    got = gk._clip(V, base, rows, 1e-9)
    assert got is V
    assert _same(got, _row_dedup_clip(V, base, rows, 1e-9)[0])


def test_float_clip_merges_where_a_row_grazes_a_vertex(monkeypatch):
    """The row x >= 3e-9 cuts off the apex of ``_wedge`` and its two edges
    6e-14 apart, within the tolerance its callers pass, feas_tol
    ``_unit(V)`` = 2e-9: the two cut points merge.  The next row is clipped
    after that merge, as a dedup after every row would, and the output is
    bit-identical to that."""
    V, base = _wedge()
    tol = gk.DEFAULT_TOL.feas_tol * gk._unit(V)
    rows = [(np.array([-1.0, 0.0]), -3e-9), (np.array([1.0, 0.0]), 0.5)]
    want = _row_dedup_clip(V, base, rows, tol)[0]
    calls = []
    dedup = gk._dedup_points
    monkeypatch.setattr(gk, "_dedup_points", lambda pts, tol: calls.append(len(pts)) or dedup(pts, tol))
    got = gk._clip(V, base, rows, tol)
    assert _same(got, want)
    assert len(got) == 3 and calls == [4, 3]  # 4 -> 3 after the first row, then the final sort


def test_float_clip_of_two_slivers_keeps_the_vertex_bound():
    """Two 3-D slivers 1e-6 thick: the edge test takes chords between the
    nearly parallel facets for edges, whose cut points, kept, would
    multiply (75 after four of the second sliver's rows, 16824 after
    seven).  Pruned, the clip holds at most the 2f - 4 vertices of f rows,
    and the intersection is the exact one's to within the tolerance."""
    rng = np.random.default_rng(0)
    A, B = (gk.from_vrep(rng.random((7, 3)) * (1e-6, 1.0, 1.0) + (0.5 - 5e-7, 0.0, 0.0)) for _ in range(2))
    M, q = B.hrep
    rows = list(zip(M @ A.frame.basis, q - M @ A.frame.origin))
    tol = 1e-9 * max(gk._unit(A.vrep), gk._unit(B.vrep))
    base = list(zip(*A.intrinsic_facets))
    for k in range(1, len(rows) + 1):
        assert len(gk._clip(A.vertices_frame, base, rows[:k], tol)) <= 2 * (len(base) + k) - 4
    exact = gk.from_hrep(np.vstack([A.hrep_normals, M]), np.concatenate([A.hrep_offsets, q]))
    assert gk.hausdorff(gk.intersect(A, B), exact) <= tol
