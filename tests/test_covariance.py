"""Scale covariance by powers of two: f(2^j P) = 2^j f(P) for the kernels,
because every tolerance is a multiple of ``_unit`` of the operands and every
external solver gets its input divided by it.

from_hrep, from_vrep, intersect, hausdorff, steiner_point, enclosing_ball and
radial hold bit for bit.  volume, tv_distance and w1_distance hold within
1e-13 relative: numpy's ``det`` is not exactly covariant under 2^j scaling.
same_affine_hull and the sandwich, y_box and selection-anchor verdicts do
not depend on the scale."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from movingbeliefs import beliefs as bl
from movingbeliefs import geomkernel as gk
from movingbeliefs import probe as pr
from movingbeliefs import svmaps as sv
from movingbeliefs.errors import DomainViolation

# at 2^-200 and 2^200 the squares and the 4-volumes of unit-size bodies are normal doubles
SCALES = st.integers(-200, 200)
RESOLUTION = {2: 0.125, 3: 0.25, 4: 0.34}  # each body of a unit-size pair meets at least 8 cells


def same_body(A, B, j):
    """A = 2^j B, bit for bit: vertices, rows, frame and boundary."""
    return (A.intrinsic_dim == B.intrinsic_dim
            and np.array_equal(A.vrep, np.ldexp(B.vrep, j))
            and np.array_equal(A.hrep_normals, B.hrep_normals)
            and np.array_equal(A.hrep_offsets, np.ldexp(B.hrep_offsets, j))
            and np.array_equal(A.frame.basis, B.frame.basis)
            and np.array_equal(A.boundary, B.boundary))


def close(a, b):
    return abs(a - b) <= 1e-13 * abs(b)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), j=SCALES)
def test_kernels_are_covariant_under_powers_of_two(seed, m, j):
    rng = np.random.default_rng(seed)
    a, b = rng.random((m + 6, m)), 0.25 + rng.random((m + 6, m))
    P, Q = gk.from_vrep(a), gk.from_vrep(b)
    Ps, Qs = gk.from_vrep(np.ldexp(a, j)), gk.from_vrep(np.ldexp(b, j))
    assert same_body(Ps, P, j) and same_body(Qs, Q, j)
    box = np.vstack([np.eye(m), -np.eye(m)]), np.concatenate([np.full(m, 0.75), np.full(m, -0.125)])
    assert same_body(gk.from_hrep(box[0], np.ldexp(box[1], j)), gk.from_hrep(*box), j)

    I, Is = gk.intersect(P, Q), gk.intersect(Ps, Qs)
    assert (I is None and Is is None) or same_body(Is, I, j)
    assert gk.hausdorff(Ps, Qs) == np.ldexp(gk.hausdorff(P, Q), j)
    assert np.array_equal(gk.steiner_point(Ps), np.ldexp(gk.steiner_point(P), j))
    (c, r), (cs, rs) = gk.enclosing_ball(P), gk.enclosing_ball(Ps)
    assert np.array_equal(cs, np.ldexp(c, j)) and rs == np.ldexp(r, j)

    assert close(gk.volume(Ps), np.ldexp(gk.volume(P), m * j))
    pair, pair_s = bl.MeasurePair.make(P, Q), bl.MeasurePair.make(Ps, Qs)
    assert close(bl.tv_distance(pair_s), bl.tv_distance(pair))
    (w, err), (ws, errs) = bl.w1_distance(pair, RESOLUTION[m]), bl.w1_distance(pair_s, np.ldexp(RESOLUTION[m], j))
    assert close(ws, np.ldexp(w, j)) and errs == np.ldexp(err, j)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), i=SCALES, j=SCALES)
def test_radial_is_covariant_in_the_direction_and_the_body(seed, m, i, j):
    """radial(P, 2^i u) = radial(P, u) / 2^i and radial(2^j P, u) =
    2^j radial(P, u), bit for bit: its tests on u are relative to |u|."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.random((m + 6, m)) - 0.5, 0.25 * np.eye(m), -0.25 * np.eye(m)])  # 0 inside
    u = rng.standard_normal(m)
    P = gk.from_vrep(pts)
    r = gk.radial(P, u)
    assert r > 0.0
    assert gk.radial(P, np.ldexp(u, i)) == np.ldexp(r, -i)
    assert gk.radial(gk.from_vrep(np.ldexp(pts, j)), u) == np.ldexp(r, j)


def _build(X):
    """The hull as ``intersect`` builds it: with no rank band, which, being
    relative to the spread alone, flags the rounding noise of a body 1e-6
    wide at unit coordinates."""
    return gk._build_polytope(X, gk.DEFAULT_TOL, strict_rank=False)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), s=st.integers(0, 20), j=SCALES,
       data=st.data())
def test_same_affine_hull_reads_the_frames_at_every_scale(seed, m, s, j, data):
    """Two k-bodies of spread 2^-s on one k-flat, the second moved off it
    along a normal: within 0.3 feas_tol u they share the hull, at 3 feas_tol
    u they do not, at every scale 2^j, as the hull of their union has
    dimension k or k + 1.  The stacked rank test, relative to the spread,
    split them in all trials from s = 3 on."""
    k = data.draw(st.integers(1, m - 1))
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    o, B, n = 0.25 + 0.5 * rng.random(m), Q[:, :k], Q[:, k]
    a, b = (o + np.ldexp(rng.random((k + 3, k)), -s) @ B.T for _ in range(2))
    eps = gk.DEFAULT_TOL.feas_tol * gk._unit(np.vstack([a, b]))
    P = _build(np.ldexp(a, j))
    for off, same in ((0.3, True), (3.0, False)):
        R = _build(np.ldexp(b + off * eps * n, j))
        assert P.intrinsic_dim == R.intrinsic_dim == k
        assert gk.same_affine_hull(P, R) is same and gk.same_affine_hull(R, P) is same
        assert _build(np.vstack([P.vrep, R.vrep])).intrinsic_dim == (k if same else k + 1)


def _planar_pair(j):
    rng = np.random.default_rng(1)
    return (gk.from_vrep(np.ldexp(rng.random((6, 2)), j)),
            gk.from_vrep(np.ldexp(0.25 + rng.random((6, 2)), j)))


@pytest.mark.parametrize("j", [-40, -30, 30, 40, 60])
def test_sandwich_verdict_and_margin_are_covariant(j):
    """The sandwich of a random planar interpolation passes at every scale,
    its margin 2^j times the unit pair's: no scale turns a relative gap of
    1e-17 into a violation."""
    def margin(j):
        report = pr.verify_sandwich_and_h(sv.InterpMap(*_planar_pair(j)), 0.0, np.linspace(0.0, 1.0, 5))
        assert report.passed
        return report.checks[0].margin

    assert margin(j) == np.ldexp(margin(0), j)


@pytest.mark.parametrize("j", [-40, -30, 0, 30, 40])
def test_y_box_test_is_relative_to_the_scale(j):
    """A y_box 0.5 feas_tol u short of the images is accepted at every
    scale, one 10 feas_tol u short is not."""
    A, B = _planar_pair(j)
    mp = sv.InterpMap(A, B)
    lo = np.minimum(A.vrep.min(axis=0), B.vrep.min(axis=0))
    hi = np.maximum(A.vrep.max(axis=0), B.vrep.max(axis=0))
    eps = gk.DEFAULT_TOL.feas_tol * gk._unit(np.vstack([A.vrep, B.vrep]))
    assert pr.verify_tv_bound(mp, [0.0, 1.0], y_box=(lo + 0.5 * eps, hi)).passed
    with pytest.raises(DomainViolation):
        pr.verify_tv_bound(mp, [0.0, 1.0], y_box=(lo + 10.0 * eps, hi))


def _anchored_selection(j, off):
    """The anchored selection of an interpolation between triangles of side
    2^j, its anchor value off feas_tol u outside the anchor image."""
    tri = np.ldexp([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], j)
    mp = sv.InterpMap(gk.from_vrep(tri), gk.from_vrep(tri[::-1] + np.ldexp(0.25, j)))
    eps = gk.DEFAULT_TOL.feas_tol * np.ldexp(1.0, j + 1)  # u of the triangle's vertices
    return sv.lipschitz_selection(mp, 0.0, np.array([-off * eps, 0.0]), [0.0, 0.5, 1.0]).points


@pytest.mark.parametrize("j", [-40, -30, 0, 30, 40])
def test_selection_anchor_check_is_relative_to_the_scale(j):
    """An anchor value 5 feas_tol u outside the anchor image is accepted at
    every scale, the selection 2^j times the unit one; 20 feas_tol u
    outside is refused."""
    assert np.array_equal(_anchored_selection(j, 5.0), np.ldexp(_anchored_selection(0, 5.0), j))
    with pytest.raises(ValueError, match="anchor value must belong"):
        _anchored_selection(j, 20.0)


def test_radial_along_a_short_direction():
    """radial(square, (1e-12, 0)) is 1e12: a row's product with u, 1e-12,
    bounds the ray."""
    square = gk.from_vrep([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    assert gk.radial(square, (1e-12, 0.0)) == 1e12
