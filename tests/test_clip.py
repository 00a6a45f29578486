"""Halfspace clipping (geomkernel._clip) against the pairwise reference it
replaced, and the exact path's inherited active sets."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from movingbeliefs import geomkernel as gk


def _reference_clip(V, base_rows, new_rows, tol):
    """The pairwise clipper: every (inside, outside) pair, with the rank of
    its common active rows recomputed per pair."""
    exact = V.dtype == object
    d = V.shape[1]
    rows = list(base_rows)
    if exact:
        tol = act_tol = 0
    else:
        act_tol = max(100.0 * tol, 1e-7)
    for nrm, off in new_rows:
        nrm = np.asarray(nrm, dtype=V.dtype)
        ln = float(any(nrm)) if exact else float(np.linalg.norm(nrm))
        if ln <= 1e-14:
            if off < -tol:
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
            act = G == C if exact else np.abs(G - C) <= act_tol
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
            V = gk._dedup_points(keep, gk._merge_distance(keep, tol))
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
    one = Fraction(1) if exact else 1.0
    lo, hi = [-one] * d, [2 * one] * d
    return gk._box_corners(lo, hi), gk._box_rows(lo, hi)


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


CASES = list(itertools.product((2, 3, 4), ("generic", "dyadic", "apex", "duplicated"), (False, True)))


@pytest.mark.parametrize("d,kind,exact", CASES)
def test_clip_matches_pairwise_reference(d, kind, exact):
    tol = gk.DEFAULT_TOL.feas_tol
    rng = np.random.default_rng([d, len(kind), exact])
    for _ in range(6 if exact and d == 4 else 12):
        V, base = _box(d, exact)
        rows = _random_rows(rng, d, kind, exact)
        assert _same(gk._clip(V, base, rows, tol), _reference_clip(V, base, rows, tol))
        # chained, as the grid splitter and intersect call it: a clipped
        # vertex array with its nonzero rows, cut again
        head = rows[: len(rows) // 2]
        W = _reference_clip(V, base, head, tol)
        if W is not None:
            base = base + [r for r in head if any(r[0])]
            more = _random_rows(rng, d, "dyadic", exact)
            assert _same(gk._clip(W, base, more, tol), _reference_clip(W, base, more, tol))


@pytest.mark.parametrize("exact", (False, True))
def test_clip_empty_and_zero_rows(exact):
    one = Fraction(1) if exact else 1.0
    V, base = _box(3, exact)
    zero = np.array([0 * one] * 3)
    e0 = np.array([one, 0 * one, 0 * one])
    assert gk._clip(V, base, [(e0, -5 * one)], 1e-9) is None  # cuts every vertex off
    assert gk._clip(V, base, [(zero, -one)], 1e-9) is None  # a zero row that holds nowhere
    kept = gk._clip(V, base, [(zero, one)], 1e-9)  # ... and one that holds everywhere
    assert _same(kept, V)
    assert _same(gk._clip(V, base, [(e0, 2 * one)], 1e-9), V)  # touches a facet, cuts nothing


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
            out = gk._clip_active(V0, base, rows[:k], 0.0)
            if out is None:
                break
            V, act = out
            kept = base + [r for r in rows[:k] if any(r[0])]
            N = np.array([r[0] for r in kept])
            C = np.array([r[1] for r in kept])
            assert np.array_equal(act, V @ N.T == C)
            assert len(set(map(tuple, V))) == len(V)
