"""Polytope kernel tests: constructors, measures, metrics, body maps."""

import dataclasses
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import ConvexHull, QhullError

import movingbeliefs.geomkernel as gk
from movingbeliefs import convexsolve
from movingbeliefs.errors import (
    AffineHullMismatch,
    EmptyInput,
    Infeasible,
    NumericalRankAmbiguity,
    OriginNotContained,
    OriginNotRelativeInterior,
    QhullFailure,
    QhullJoggleWarning,
    Unbounded,
)
from movingbeliefs.probe import random_polytope

TOL = gk.DEFAULT_TOL


def unit_square():
    return gk.from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])


def tri_simplex():
    return gk.from_vrep([(0, 0), (1, 0), (0, 1)])


def trapezoid(x: float) -> gk.Polytope:
    return gk.from_vrep([(0.0, 0.0), (1.0, 0.0), (1.0, x), (x**0.25, x)])


point_clouds = st.integers(min_value=0, max_value=2**31 - 1).map(
    lambda seed: np.random.default_rng(seed).random((np.random.default_rng(seed).integers(3, 9), 2))
)


class TestFromVrep:
    def test_interior_point_removed(self):
        P = gk.from_vrep([(0, 0), (1, 0), (0, 1), (0.25, 0.25)])
        assert P.n_vertices == 3
        assert P.intrinsic_dim == 2
        P.validate()

    def test_collinear_segment(self):
        P = gk.from_vrep([(0, 0), (1, 0)])
        assert P.intrinsic_dim == 1
        assert P.frame.basis[:, 0] == pytest.approx([1.0, 0.0])
        P.validate()

    def test_duplicates_removed(self):
        P = gk.from_vrep([(0, 0), (1, 0), (1, 1), (1, 1)])
        assert P.n_vertices == 3
        assert P.intrinsic_dim == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            gk.from_vrep(np.zeros((0, 2)))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            gk.from_vrep([(0.0, np.inf)])

    def test_rank_ambiguity_reported(self):
        # second axis spread sits inside the (rank_tol/10, 10*rank_tol) band
        eps = 3e-9
        msg = "singular value 2.449e-09 lies inside the rank band (7.1e-11, 7.1e-09)"
        with pytest.raises(NumericalRankAmbiguity, match=f"^{re.escape(msg)}$"):
            gk.from_vrep([(0, 0), (1, 0), (0.5, eps)])

    @pytest.mark.parametrize("s", [1e155, 1e200, -1e200])
    def test_coordinates_above_the_bound_raise(self, s):
        """Squared differences of such coordinates overflow: the square would
        come out with zero facet normals, or as a 2-vertex set of volume 0."""
        with pytest.raises(ValueError, match=re.escape("at most 1e+150 in magnitude")):
            gk.from_vrep(np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * s)

    def test_coordinates_at_the_bound_build(self):
        P = gk.from_vrep(np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) * gk.MAX_COORD)
        P.validate()
        assert (P.n_vertices, P.intrinsic_dim) == (4, 2)
        assert gk.volume(P) == pytest.approx(4.0 * gk.MAX_COORD**2)

    def test_large_4_cubes_keep_every_vertex(self):
        """Qhull sees the coordinates divided by a power of two: the 4-cube
        of side 1e60 used to raise QhullFailure, and those of side 1e110 and
        1e150 lost 4 vertices or crashed the process, so they are built in a
        child process.  The facet offsets come back at the cubes' scale; a
        4-volume beyond the largest double is a ValueError naming k."""
        code = (
            "import itertools, json, numpy as np\n"
            "from movingbeliefs import geomkernel as gk\n"
            "cube = np.array(list(itertools.product((0.0, 1.0), repeat=4)))\n"
            "for s in (1e60, 1e110, 1e150):\n"
            "    P = gk.from_vrep(cube * s)\n"
            "    err = float(np.max(np.abs(np.sort(P.hrep_offsets) / s - (0, 0, 0, 0, 1, 1, 1, 1))))\n"
            "    try:\n"
            "        vol = gk.volume(P) / s**2 / s**2\n"
            "    except ValueError as exc:\n"
            "        vol = str(exc)\n"
            "    print(json.dumps([P.n_vertices, len(P.hrep_offsets), err, vol]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gk.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        got = [json.loads(line) for line in res.stdout.splitlines()]
        assert [(n, rows) for n, rows, _, _ in got] == [(16, 8)] * 3
        assert all(err < 1e-12 for _, _, err, _ in got)
        assert got[0][3] == pytest.approx(1.0, rel=1e-12)
        assert got[1][3] == got[2][3] == "a simplex's 4-volume overflows a double"

    @given(point_clouds)
    def test_invariants_on_random_clouds(self, pts):
        P = gk.from_vrep(pts)
        P.validate()
        # every input point is inside the hull
        M, q = P.hrep
        assert np.max(M @ pts.T - q[:, None]) <= 1e-7
        # vertices are lexicographically sorted
        order = np.lexsort(P.vrep.T[::-1])
        assert (order == np.arange(P.n_vertices)).all()

    def test_vertices_are_extreme(self, rng):
        """No stored vertex is a convex combination of the others (distance to
        the hull of the rest is positive, via the min-norm subproblem)."""
        from movingbeliefs import convexsolve as cs

        for _ in range(10):
            P = gk.from_vrep(rng.random((7, 2)))
            for i in range(P.n_vertices):
                others = np.delete(P.vrep, i, axis=0)
                if others.shape[0] == 0:
                    continue
                gap = np.linalg.norm(cs.min_norm_point(others - P.vrep[i]))
                assert gap > 1e-9

    def test_large_cloud_builds_without_a_square_matrix(self):
        """The affine-hull SVD is thin: 50 000 points never ask for the
        n x n left factor (18.6 GiB), and the traced peak stays far below it."""
        pts = np.random.default_rng(0).random((50_000, 3))
        tracemalloc.start()
        try:
            P = gk.from_vrep(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.intrinsic_dim == 3
        assert peak < 1e-3 * 8 * len(pts) ** 2


class TestDedupPoints:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1e-12, 1e-10, 1e-9]),
        st.floats(min_value=-14.0, max_value=-7.0),
        st.booleans(),
    )
    def test_matches_greedy_reference(self, seed, m, tol, log_gap, ties):
        """A point is kept iff no earlier kept point (in lexicographic order)
        lies within tol, exactly as an O(n^2) greedy pass decides it; the
        near-duplicates sit on both sides of tol and can form chains; at the
        widest gaps often no two points lie within 2 tol along the window
        direction, so that the early return is taken."""
        rng = np.random.default_rng(seed)
        base = rng.random((int(rng.integers(1, 30)), m))
        if ties:
            base[:, 0] = np.round(base[:, 0], 1)  # many equal first coordinates
        near = base[rng.integers(0, len(base), 2 * len(base))]
        near += rng.standard_normal(near.shape) * 10.0**log_gap
        pts = np.vstack([base, near, near[::2]])  # with exact repeats
        pts = pts[rng.permutation(len(pts))]
        keep = []
        for p in pts[np.lexsort(pts.T[::-1])]:
            if all(np.linalg.norm(p - k) > tol for k in keep):
                keep.append(p)
        np.testing.assert_array_equal(gk._dedup_points(pts, tol), np.array(keep))

    def test_shared_first_coordinate_stays_small(self):
        """Points that share their first coordinate are not all compared with
        each other: the window runs along a direction with no zero entry."""
        pts = np.column_stack([np.zeros(4000), np.random.default_rng(0).random(4000)])
        tracemalloc.start()
        try:
            out = gk._dedup_points(pts, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 4000
        assert peak < 10e6

    def test_points_sharing_one_window_stay_fast(self):
        """Points on the line orthogonal to the window direction all share
        one window; the pair pass still compares only the pairs within
        2 tol, so 3000 of them, with ten near-duplicates, take milliseconds."""
        u = gk._window_direction(2)
        pts = np.outer(np.linspace(0.0, 1.0, 3000), [-u[1], u[0]])
        pts = np.vstack([pts, pts[::300] + 0.5e-9 * np.array([-u[1], u[0]])])
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            out = gk._dedup_points(pts, 1e-9)
            best = min(best, time.perf_counter() - start)
        assert len(out) == 3000
        assert best < 0.05


class TestMonotoneChain:
    @pytest.mark.parametrize("n", [3, 4, 7, 20, 60])
    def test_ccw_ring_of_the_hull_vertices(self, rng, n):
        """On general-position clouds the ring is the set of ConvexHull's
        vertices, and every turn along it is counterclockwise."""
        for _ in range(20):
            t = rng.standard_normal((n, 2))
            ring = gk._monotone_chain(t, 1e-12)
            assert sorted(ring.tolist()) == sorted(ConvexHull(t).vertices.tolist())
            a, b, c = t[ring], t[np.roll(ring, -1)], t[np.roll(ring, -2)]
            turn = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
            assert (turn > 0).all()

    def test_edge_midpoints_are_dropped(self):
        corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        t = np.vstack([corners, (corners + np.roll(corners, -1, axis=0)) / 2.0])
        assert gk._monotone_chain(t, 1e-12).tolist() == [0, 1, 2, 3]


class TestFacetRows:
    """For k >= 3 the facet rows are the first of each group of Qhull's
    equations that agree to 9 decimals, in Qhull's order."""

    def test_cube_and_tesseract(self):
        for m, rows in ((3, 6), (4, 8)):
            P = gk.from_vrep(np.array(list(itertools.product((0.0, 1.0), repeat=m))))
            assert P.hrep_normals.shape == (rows, m)

    @pytest.mark.parametrize("m", [3, 4])
    def test_rows_and_order_match_unique(self, rng, monkeypatch, m):
        hulls = []

        def recording(*args, **kwargs):
            hulls.append(ConvexHull(*args, **kwargs))
            return hulls[-1]

        monkeypatch.setattr(gk, "ConvexHull", recording)
        for cloud in (rng.standard_normal((8 * m, m)), rng.integers(0, 3, (8 * m, m)).astype(float)):
            N = gk.from_vrep(cloud).intrinsic_facets[0]
            eqs = hulls[-1].equations
            _, first = np.unique(np.round(eqs, 9), axis=0, return_index=True)
            np.testing.assert_allclose(N, eqs[np.sort(first), :-1], rtol=0, atol=1e-12)
        assert len(first) < len(eqs)  # the lattice cloud's coplanar facets repeat rows


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        gk.Tolerances(feas_tol=0.0)
    with pytest.raises(ValueError):
        gk.Tolerances(rank_tol=-1e-9)
    with pytest.raises(ValueError):
        gk.Tolerances(sphere_nodes=0)
    with pytest.raises(ValueError):
        gk.Tolerances(feas_tol=float("nan"))


class TestQhullJoggle:
    """Both QJ fallbacks warn; each is forced by a first Qhull call that fails."""

    @staticmethod
    def _fail_once(monkeypatch, name):
        real = getattr(gk, name)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(kwargs.get("qhull_options"))
            if len(calls) == 1:
                raise QhullError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(gk, name, flaky)
        return calls

    def test_convex_hull_fallback_warns(self, rng, monkeypatch):
        calls = self._fail_once(monkeypatch, "ConvexHull")
        with pytest.warns(QhullJoggleWarning, match="ConvexHull"):
            P = gk.from_vrep(rng.random((8, 3)))
        assert calls[:2] == [None, "QJ"]
        P.validate()

    def test_delaunay_fallback_warns(self, rng, monkeypatch):
        P = gk.from_vrep(rng.random((8, 3)))
        calls = self._fail_once(monkeypatch, "Delaunay")
        with pytest.warns(QhullJoggleWarning, match="Delaunay"):
            vol = gk.volume(P)
        assert calls == [None, "QJ"]
        assert vol > 0.0

    @pytest.mark.parametrize("name", ["ConvexHull", "Delaunay"])
    def test_joggle_failure_is_a_named_error(self, rng, monkeypatch, name):
        def failing(*args, **kwargs):
            raise QhullError("forced")

        monkeypatch.setattr(gk, name, failing)
        with pytest.warns(QhullJoggleWarning), pytest.raises(QhullFailure, match=name):
            gk.volume(gk.from_vrep(rng.random((8, 3))))


class TestOneHullPerPolytope:
    """Vertices, facet rows and boundary come from the hull computed once
    when the polytope is built; nothing read off it computes a hull again."""

    @staticmethod
    def _count(monkeypatch, name):
        real = getattr(gk, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(gk, name, counting)
        return calls

    def test_one_qhull_call_each_in_3d(self, rng, monkeypatch):
        hulls, delaunays = self._count(monkeypatch, "ConvexHull"), self._count(monkeypatch, "Delaunay")
        P = gk.from_vrep(rng.standard_normal((30, 3)))
        gk.volume(P)
        P.intrinsic_facets
        gk.steiner_point(P)
        gk.steiner_point(P)
        assert (len(hulls), len(delaunays)) == (1, 1)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_facets_match_a_fresh_hull(self, m):
        rng = np.random.default_rng(m)
        cube = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
        for P in (gk.from_vrep(rng.standard_normal((10 * m, m))), gk.from_vrep(cube)):
            shift = rng.uniform(-2.0, 2.0, m)
            for Q in (P, gk.translate(P, shift), gk.scale(P, 2.5), gk.scale(gk.translate(P, shift), 0.4)):
                N, c = Q.intrinsic_facets
                eqs = ConvexHull(Q.vertices_frame).equations
                got, want = np.column_stack([N, c]), np.column_stack([eqs[:, :-1], -eqs[:, -1]])
                gap = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
                assert gap.min(axis=1).max() <= 1e-12 and gap.min(axis=0).max() <= 1e-12


class TestFromHrep:
    def test_unit_square(self):
        M = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float)
        q = np.array([1, 0, 1, 0], float)
        P = gk.from_hrep(M, q)
        assert P.n_vertices == 4
        assert gk.volume(P) == pytest.approx(1.0)

    def test_triangle(self):
        P = gk.from_hrep(np.array([[1, 1], [-1, 0], [0, -1]], float), np.array([1, 0, 0], float))
        assert P.n_vertices == 3

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            gk.from_hrep(np.array([[1, 0], [-1, 0]], float), np.array([0, -1], float))

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            gk.from_hrep(np.array([[1, 0], [0, 1], [0, -1]], float), np.array([1, 1, 0], float))

    def test_flat_system(self):
        # y2 pinned to 0 by opposite rows
        M = np.array([[0, 1], [0, -1], [1, 0], [-1, 0]], float)
        q = np.array([0, 0, 1, 0], float)
        P = gk.from_hrep(M, q)
        assert P.intrinsic_dim == 1
        assert P.vrep == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize(
        "M,q,error",
        [
            ([[1], [-1]], [1 / 3, -1 / 2], Infeasible),  # y <= 1/3 and y >= 1/2
            ([[-1, 0], [0, -1], [1, 1]], [-1 / 3, 0, 1 / 7], Infeasible),
            ([[-1, 0], [0, 1], [0, -1]], [1 / 3, 1, 0], Unbounded),
            ([[-1, 0], [1, -1]], [-2 / 3, 0], Unbounded),
            ([[1, 0], [-1, 0]], [1, 0], Unbounded),  # rank 1: a strip holds a line
            (np.zeros((0, 2)), [], Unbounded),
        ],
        ids=["interval", "triangle", "half-strip", "wedge", "strip", "no-rows"],
    )
    def test_rational_status(self, M, q, error):
        """Empty and unbounded systems on small rational data rounded to
        floats; an unbounded one names a recession direction d (M d <= 0,
        and M d = 0 along a line)."""
        M = np.array(M, dtype=float)
        with pytest.raises(error) as info:
            gk.from_hrep(M, np.array(q, dtype=float))
        if error is Unbounded:
            named = re.search(r"recession direction \(([^)]*)\)", str(info.value))[1]
            d = np.array([float(v) for v in named.split(",")])
            assert np.abs(d).max() == 1.0 and (M @ d <= 0).all()
            assert "line" not in str(info.value) or (M @ d == 0).all()

    @pytest.mark.parametrize(
        "M,q",
        [
            ([[-2, -1], [2, 0], [1, 0], [0, 1]], [0, -2, 2, 2]),
            ([[-2, -1], [2, 0], [2, 0], [1, 0], [0, 1]], [0, -2, -2, 2, 2]),  # a repeated row
        ],
        ids=["three-rows", "repeated-row"],
    )
    def test_repeated_rows(self, M, q):
        """A degenerate system whose only point (-1, 2) lies on three rows,
        or four with one repeated."""
        P = gk.from_hrep(np.array(M, dtype=float), np.array(q, dtype=float))
        assert P.intrinsic_dim == 0 and P.vrep.tolist() == [[-1.0, 2.0]]

    def test_zero_rows_hold_or_empty(self):
        M = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], float)
        P = gk.from_hrep(M, np.array([1, 1, 0, 1, 0], float))
        assert P.vrep.tolist() == unit_square().vrep.tolist()
        with pytest.raises(Infeasible):
            gk.from_hrep(M, np.array([-1, 1, 0, 1, 0], float))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_raises(self, bad):
        M = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], float)
        q = np.array([1, 0, 1, 0], float)
        with pytest.raises(ValueError):
            gk.from_hrep(M, np.where(np.arange(4) == 1, bad, q))
        with pytest.raises(ValueError):
            gk.from_hrep(np.where(M == 1, bad, M), q)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_dyadic_vertices_match_brute_force_bit_for_bit(self, d, brute_vertices):
        """Random systems of multiples of 1/4 about a box: the vertex set is
        the brute-force one (every nonsingular d-subset solved in Fractions,
        the feasible solutions rounded), bit for bit."""
        rng = np.random.default_rng([d, 31])
        for _ in range(4):
            n = int(rng.integers(2, 6))
            M = np.vstack([np.eye(d), -np.eye(d), rng.integers(-8, 9, (n, d)) / 4.0])
            q = np.concatenate([rng.integers(2, 9, 2 * d) / 4.0, rng.integers(1, 9, n) / 4.0])
            want = brute_vertices(M, q)
            got = gk.from_hrep(M, q).vrep
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_unit_normal_vertices_match_brute_force(self, d, brute_vertices):
        """Random unit-normal systems of up to 16 rows around the origin: the
        vertices are the brute-force ones within 1e-12."""
        rng = np.random.default_rng([d, 37])
        for p in (2 * d + 1, 16):
            while True:  # draw until the system is bounded
                N = rng.standard_normal((p, d))
                N /= np.linalg.norm(N, axis=1, keepdims=True)
                q = rng.uniform(0.2, 1.0, p)
                try:
                    got = gk.from_hrep(N, q).vrep
                    break
                except Unbounded:
                    pass
            want = brute_vertices(N, q)
            gap = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
            assert got.shape == want.shape
            assert gap.min(axis=1).max() <= 1e-12 and gap.min(axis=0).max() <= 1e-12


class TestVolume:
    def test_unit_square(self):
        assert gk.volume(unit_square()) == pytest.approx(1.0)

    def test_trapezoid_closed_form(self):
        # area of the trapezoid with parallel sides 1 and 1-x^(1/4), height x:
        # x*(1 - x^(1/4)/2); at x=1/16 this is 3/64
        x = 1.0 / 16.0
        assert gk.volume(trapezoid(x)) == pytest.approx(3.0 / 64.0, abs=1e-15)

    def test_wedge_closed_form(self):
        # conv{(0,-x),(1,-x),(1,x^q),(0,0)} = rectangle + top triangle:
        # x*1 + x^q/2; at q=2, x=1 this is 1.5
        P = gk.from_vrep([(0, -1), (1, -1), (1, 1), (0, 0)])
        assert gk.volume(P) == pytest.approx(1.5, abs=1e-12)

    def test_point_measure_is_one(self):
        assert gk.volume(gk.from_vrep([(0.3, 0.7)])) == 1.0

    def test_triangulation_sums_to_volume(self, rng):
        for m in (2, 3):
            pts = rng.random((8, m))
            P = gk.from_vrep(pts)
            total = 0.0
            for simplex in gk.triangulate(P):
                d = P.frame.to_frame(simplex)
                total += abs(np.linalg.det(d[1:] - d[0])) / math.factorial(P.intrinsic_dim)
            assert total == pytest.approx(gk.volume(P), rel=1e-10)

    def test_triangulation_is_built_once(self, rng, monkeypatch):
        calls = []
        real = gk.Delaunay

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(gk, "Delaunay", counting)
        P = gk.from_vrep(rng.random((9, 3)))
        S, vols = P.triangulation
        assert gk.volume(P) == float(vols.sum())
        assert len(gk.triangulate(P)) == len(S)
        assert P.triangulation is P.triangulation
        assert len(calls) == 1
        assert not S.flags.writeable and not vols.flags.writeable

    def test_point_triangulation_is_one_unit_simplex(self):
        P = gk.from_vrep([(0.3, 0.7)])
        S, vols = P.triangulation
        assert S.tolist() == [[0]] and vols.tolist() == [1.0]
        assert [s.tolist() for s in gk.triangulate(P)] == [[[0.3, 0.7]]]

    def test_volume_vs_monte_carlo(self, rng):
        """Rejection-sampling oracle: within 3 standard errors."""
        for m in (2, 3):
            pts = rng.random((7, m))
            P = gk.from_vrep(pts)
            lo, hi = P.bounding_box()
            box_vol = float(np.prod(hi - lo))
            n = 200_000
            sample = rng.uniform(lo, hi, size=(n, m))
            M, q = P.hrep
            inside = np.all(M @ sample.T - q[:, None] <= 1e-12, axis=0)
            p_hat = inside.mean()
            est = box_vol * p_hat
            se = box_vol * math.sqrt(p_hat * (1 - p_hat) / n)
            assert abs(est - gk.volume(P)) <= 3 * se


class TestSupportDiameterRadial:
    def test_support_square(self):
        assert gk.support(unit_square(), (1, 1)) == pytest.approx(2.0)

    def test_support_segment_orthogonal(self):
        seg = gk.from_vrep([(-1, 0), (1, 0)])
        assert gk.support(seg, (0, 1)) == pytest.approx(0.0)

    def test_support_triangle(self):
        assert gk.support(tri_simplex(), (1, 0)) == pytest.approx(1.0)

    def test_diameter(self):
        assert gk.diameter(unit_square()) == pytest.approx(math.sqrt(2))
        assert gk.diameter(gk.from_vrep([(0.5, 0.5)])) == 0.0
        assert gk.diameter(gk.from_vrep([(0, 0), (1, 0), (1, 1)])) == pytest.approx(math.sqrt(2))

    def test_radial_centered_square(self):
        P = gk.translate(unit_square(), np.array([-0.5, -0.5]))
        assert gk.radial(P, (1, 0)) == pytest.approx(0.5)
        # oracle: the ray along (1,1)/sqrt(2) exits at the corner-facing facet
        # x = 1/2, i.e. t/sqrt(2) = 1/2 -> t = sqrt(2)/2
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        assert gk.radial(P, u) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_radial_leaves_affine_hull(self):
        seg = gk.from_vrep([(-1, 0), (1, 0)])
        assert gk.radial(seg, (0, 1)) == 0.0

    def test_radial_requires_origin(self):
        with pytest.raises(OriginNotContained):
            gk.radial(gk.from_vrep([(1, 1), (2, 1), (1, 2)]), (1, 0))


class TestInnerRadius:
    def test_square(self):
        P = gk.translate(unit_square(), np.array([-0.5, -0.5]))
        assert gk.inner_radius(P) == pytest.approx(0.5)

    def test_segment_endpoints_are_facets(self):
        assert gk.inner_radius(gk.from_vrep([(-1, 0), (1, 0)])) == pytest.approx(1.0)

    def test_triangle_nearest_edge(self):
        # oracle recomputed edge by edge: edges of conv{(-1,-1),(1,-1),(0,2)}
        # have point-line distances 1 (y=-1), 2/sqrt(10) (3x+y=2), 2/sqrt(10)
        # (3x-y=-2) from the origin, so the inner radius is 2/sqrt(10).
        tri = gk.from_vrep([(-1, -1), (1, -1), (0, 2)])

        def line_dist(a, b):
            a, b = np.asarray(a, float), np.asarray(b, float)
            nrm = np.array([b[1] - a[1], a[0] - b[0]])
            return abs(nrm @ a) / np.linalg.norm(nrm)

        oracle = min(line_dist((-1, -1), (1, -1)), line_dist((1, -1), (0, 2)), line_dist((-1, -1), (0, 2)))
        assert oracle == pytest.approx(2 / math.sqrt(10))
        assert gk.inner_radius(tri) == pytest.approx(oracle, abs=1e-12)

    def test_requires_relative_interior(self):
        with pytest.raises(OriginNotRelativeInterior):
            gk.inner_radius(unit_square())  # origin is a vertex
        with pytest.raises(OriginNotRelativeInterior):
            gk.inner_radius(gk.from_vrep([(0, 1), (1, 1)]))  # origin off the hull

    def test_matches_min_radial_over_direction_grid(self, rng):
        for _ in range(10):
            pts = rng.random((6, 2))
            P = gk.from_vrep(pts)
            c = gk.steiner_point(P)
            P0 = gk.translate(P, -c)
            r = gk.inner_radius(P0)
            ang = np.linspace(0, 2 * math.pi, 2000, endpoint=False)
            grid_min = min(gk.radial(P0, (math.cos(a), math.sin(a))) for a in ang)
            assert r <= grid_min + 1e-12
            assert grid_min - r <= 0.01


class TestSteinerPoint:
    def test_square_center(self):
        assert gk.steiner_point(unit_square()) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_singleton(self):
        assert gk.steiner_point(gk.from_vrep([(0.2, -0.4)])) == pytest.approx([0.2, -0.4])

    def test_segment_midpoint(self):
        assert gk.steiner_point(gk.from_vrep([(-2, 0), (2, 0)])) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_matches_direct_circle_quadrature(self, rng):
        """Independent oracle: dense trapezoidal quadrature of the defining
        support-function integral over the circle."""
        for _ in range(5):
            P = gk.from_vrep(rng.random((6, 2)))
            n = 200_000
            ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
            U = np.column_stack([np.cos(ang), np.sin(ang)])
            sigma = np.max(U @ P.vrep.T, axis=1)
            oracle = (U * sigma[:, None]).sum(axis=0) * (2 * math.pi / n) / math.pi
            assert gk.steiner_point(P) == pytest.approx(oracle, abs=1e-8)

    def test_three_dim_quadrature_cube(self):
        cube = gk.from_vrep([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert gk.steiner_point(cube) == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3]), st.booleans())
    def test_external_angles_are_a_distribution(self, seed, k, sliver):
        P = random_polytope(np.random.default_rng(seed), m=k, sliver=sliver)
        gamma = gk._external_angles(P, TOL)
        assert gamma.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(gamma > 0)


class TestHausdorff:
    def test_translated_square(self):
        A = unit_square()
        assert gk.hausdorff(A, gk.translate(A, np.array([1.0, 0.0]))) == pytest.approx(1.0)

    def test_triangle_vs_square(self):
        # farthest point of the square from the triangle is (1,1); its distance
        # to the hyperplane y1+y2=1 is sqrt(2)/2
        assert gk.hausdorff(tri_simplex(), unit_square()) == pytest.approx(math.sqrt(2) / 2)

    def test_nested_trapezoids_track_parameter(self):
        for x, x2 in [(0.9, 0.5), (0.7, 0.2), (1.0, 0.99)]:
            assert gk.hausdorff(trapezoid(x), trapezoid(x2)) == pytest.approx(abs(x - x2), abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        A = gk.from_vrep(rng.random((4, 2)))
        B = gk.from_vrep(rng.random((5, 2)))
        C = gk.from_vrep(rng.random((4, 2)))
        d_ab, d_ba = gk.hausdorff(A, B), gk.hausdorff(B, A)
        assert d_ab == pytest.approx(d_ba, abs=1e-9)
        assert d_ab <= gk.hausdorff(A, C) + gk.hausdorff(C, B) + 1e-9

    def test_matches_wolfe_path_in_3d(self, rng):
        A = gk.from_vrep(rng.random((6, 3)))
        B = gk.from_vrep(rng.random((6, 3)))
        d = gk.hausdorff(A, B)
        # oracle: dense sampling of both bodies
        sa = np.vstack([A.vrep, A.vrep.mean(axis=0)])
        assert d >= 0
        e_ab = max(gk.dist_point(B, v)[0] for v in A.vrep)
        e_ba = max(gk.dist_point(A, v)[0] for v in B.vrep)
        assert d == pytest.approx(max(e_ab, e_ba), abs=1e-9)


def _seg_dist(v, a, b):
    """Distance from the point v to the segment [a, b] (a point when a == b)."""
    e = b - a
    den = float(e @ e)
    t = 0.0 if den == 0.0 else min(max(float((v - a) @ e) / den, 0.0), 1.0)
    return float(np.linalg.norm(v - (a + t * e)))


def _planar_excess_ref(P, Q):
    """max over P's vertices of the distance to conv(Q's vertices), taken as
    the union of the triangles, segments and points on those vertices: 0
    inside a triangle (barycentric weights >= 0), else the nearest edge."""
    W = Q.vrep
    best = 0.0
    for v in P.vrep:
        d = min(_seg_dist(v, W[i], W[j]) for i in range(len(W)) for j in range(i, len(W)))
        for i, j, k in itertools.combinations(range(len(W)), 3):
            T = np.column_stack([W[j] - W[i], W[k] - W[i]])
            if abs(np.linalg.det(T)) > 1e-14:
                lam = np.linalg.solve(T, v - W[i])
                if lam.min() >= 0.0 and lam.sum() <= 1.0:
                    d = 0.0
        best = max(best, d)
    return best


def _wolfe_excess_ref(P, Q):
    """max over P's vertices of the Wolfe minimum-norm-point distance to Q."""
    return max(float(np.linalg.norm(convexsolve.min_norm_point(Q.vrep - v))) for v in P.vrep)


def _planar_bodies(rng):
    return [
        gk.from_vrep(rng.random((1, 2))),
        gk.from_vrep(rng.random((2, 2))),
        gk.from_vrep(rng.random((3, 2))),
        random_polytope(rng, 2),
        random_polytope(rng, 2, sliver=True),
        gk.from_vrep(0.4 + 0.2 * rng.random((5, 2))),  # inside [0.4, 0.6]^2
    ]


def _spatial_bodies(rng):
    return [
        gk.from_vrep(rng.random((1, 3))),
        gk.from_vrep(rng.random((2, 3))),
        gk.from_vrep(rng.random((3, 3))),
        random_polytope(rng, 3),
        random_polytope(rng, 3, sliver=True),
        gk.from_vrep(0.4 + 0.2 * rng.random((6, 3))),  # inside [0.4, 0.6]^3
    ]


def _bodies_trials(rng):
    """Pairs shaped like the bodies benchmark's 3-D trials: six-point bodies,
    slivers among them, and two Minkowski interpolants of each pair."""
    pairs = []
    for sliver in (False, True, False):
        A = random_polytope(rng, 3, n_points=(6, 7), sliver=sliver)
        B = random_polytope(rng, 3, n_points=(6, 7))
        t, s = sorted(rng.random(2))
        pairs += [(A, B), (gk.minkowski_interpolate(A, B, t), gk.minkowski_interpolate(A, B, s))]
    return pairs


class TestHausdorffReferences:
    """hausdorff against references that share no code with it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_planar_matches_vertex_segment_reference(self, seed):
        bodies = _planar_bodies(np.random.default_rng(seed))
        for A, B in itertools.product(bodies, repeat=2):
            ref = max(_planar_excess_ref(A, B), _planar_excess_ref(B, A))
            assert gk.hausdorff(A, B) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_spatial_matches_per_vertex_wolfe(self, seed):
        bodies = _spatial_bodies(np.random.default_rng(seed))
        for A, B in itertools.product(bodies, repeat=2):
            ref = max(_wolfe_excess_ref(A, B), _wolfe_excess_ref(B, A))
            assert gk.hausdorff(A, B) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_symmetric_bitwise_and_zero_on_itself(self, m):
        rng = np.random.default_rng(11)
        bodies = _planar_bodies(rng) if m == 2 else _spatial_bodies(rng)
        for A, B in itertools.product(bodies, repeat=2):
            assert gk.hausdorff(A, B) == gk.hausdorff(B, A)
        for A in bodies:
            assert gk.hausdorff(A, A) == 0.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_nested_body_has_zero_excess(self, m):
        rng = np.random.default_rng(5)
        inner = gk.from_vrep(0.4 + 0.2 * rng.random((6, m)))
        outer = gk.from_vrep(np.vstack([np.eye(m), np.zeros(m), np.ones(m)]))
        assert gk._excess(inner, outer) == 0.0
        ref = _planar_excess_ref(outer, inner) if m == 2 else _wolfe_excess_ref(outer, inner)
        assert gk.hausdorff(inner, outer) == pytest.approx(ref, abs=1e-12)
        assert gk.hausdorff(inner, outer) > 0.0

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("gap", [1e-6, 1e-4])
    def test_vertex_just_outside_counts(self, m, gap):
        cube = gk.from_vrep(list(itertools.product((0.0, 1.0), repeat=m)))
        tip = np.full(m, 0.5)
        tip[0] = 1.0 + gap
        P = gk.from_vrep(np.vstack([0.4 + 0.2 * np.eye(m), [tip]]))
        assert gk._excess(P, cube) == pytest.approx(gap, abs=1e-12)
        assert gk._excess(P, cube) == pytest.approx(_wolfe_excess_ref(P, cube), abs=1e-12)

    @pytest.mark.parametrize(
        "point, want",
        [
            ((0.5, 0.5, 1.3), 0.3),  # above the interior of the facet z = 1
            ((1.3, 0.5, 1.4), 0.5),  # nearest the edge x = z = 1
            ((1.2, 1.3, -0.6), 0.7),  # nearest the vertex (1, 1, 0)
        ],
    )
    def test_unit_cube_closed_forms(self, point, want):
        cube = gk.from_vrep(list(itertools.product((0.0, 1.0), repeat=3)))
        assert gk._excess(gk.from_vrep([point]), cube) == pytest.approx(want, abs=1e-15)

    def test_merged_coplanar_facets_match_wolfe(self, rng):
        """A cube with its face centres, which Qhull merges into square
        facets, and the same cube with zero-area triangles added to its
        boundary: the same excesses as Wolfe's, with no warning."""
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        centres = np.array([[v if j == i else 0.5 for j in range(3)] for i in range(3) for v in (0.0, 1.0)])
        cube = gk.from_vrep(np.vstack([corners, centres]))
        flat = dataclasses.replace(cube, boundary=np.vstack([cube.boundary, [[0, 0, 1], [2, 3, 3], [5, 5, 5]]]))
        outer = gk.from_vrep(rng.uniform(-0.5, 1.5, (12, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for P in (outer, gk.from_vrep(rng.uniform(-0.2, 1.2, (6, 3))), gk.from_vrep([(1.2, 1.3, -0.6)])):
                want = _wolfe_excess_ref(P, cube)
                assert gk._excess(P, cube) == pytest.approx(want, abs=1e-12)
                assert gk._excess(P, flat) == gk._excess(P, cube)

    @pytest.mark.parametrize("seed", range(4))
    def test_bodies_trials_match_wolfe_without_it(self, seed, monkeypatch):
        """The excesses of full-dimensional bodies in 3-space take no Wolfe
        step, and agree with the per-vertex Wolfe reference."""
        pairs = _bodies_trials(np.random.default_rng(seed))
        refs = [(_wolfe_excess_ref(A, B), _wolfe_excess_ref(B, A)) for A, B in pairs]

        def no_wolfe(*args, **kwargs):
            raise AssertionError("Wolfe ran on a full-dimensional body in 3-space")

        monkeypatch.setattr(convexsolve, "min_norm_point", no_wolfe)
        for (A, B), (ab, ba) in zip(pairs, refs):
            assert gk._excess(A, B) == pytest.approx(ab, abs=1e-12)
            assert gk._excess(B, A) == pytest.approx(ba, abs=1e-12)

    def test_inside_rule_same_in_plane_and_space(self):
        """A vertex 5e-10 outside (below feas_tol) counts in the plane as it
        does on the plane z = 0 of 3-space."""
        tri = np.array([[0.4, 0.4], [0.6, 0.4], [1.0 + 5e-10, 0.5]])
        sq = np.array(list(itertools.product((0.0, 1.0), repeat=2)))
        flat = [gk.from_vrep(np.column_stack([p, np.zeros(len(p))])) for p in (tri, sq)]
        e2 = gk._excess(gk.from_vrep(tri), gk.from_vrep(sq))
        assert e2 == pytest.approx(5e-10, rel=1e-6)
        assert e2 == pytest.approx(gk._excess(*flat), abs=1e-20)


class TestDistPoint:
    def test_outside_square(self):
        d, p = gk.dist_point(unit_square(), (2.0, 0.5))
        assert d == pytest.approx(1.0)
        assert p == pytest.approx([1.0, 0.5])

    def test_inside_point(self):
        d, p = gk.dist_point(unit_square(), (0.25, 0.75))
        assert d == pytest.approx(0.0, abs=1e-9)
        assert p == pytest.approx([0.25, 0.75], abs=1e-7)

    def test_projection_onto_diagonal_facet(self):
        d, p = gk.dist_point(tri_simplex(), (1.0, 1.0))
        assert d == pytest.approx(math.sqrt(2) / 2)
        assert p == pytest.approx([0.5, 0.5])

    def test_variational_inequality(self, rng):
        P = gk.from_vrep(rng.random((6, 2)))
        y = np.array([2.0, -1.0])
        _, p = gk.dist_point(P, y)
        assert np.max((P.vrep - p) @ (y - p)) <= 1e-8


class TestIntersect:
    def test_overlapping_squares(self):
        A = unit_square()
        B = gk.translate(A, np.array([0.5, 0.5]))
        I = gk.intersect(A, B)
        assert gk.volume(I) == pytest.approx(0.25)

    def test_disjoint(self):
        A = unit_square()
        assert gk.intersect(A, gk.translate(A, np.array([3.0, 0.0]))) is None

    def test_halfplane_triangle(self):
        I = gk.intersect(unit_square(), gk.from_hrep(
            np.array([[1, 1], [-1, 0], [0, -1]], float), np.array([1, 0, 0], float)))
        assert gk.volume(I) == pytest.approx(0.5)

    def test_segment_meets_square(self):
        seg = gk.from_vrep([(-0.5, 0.5), (2.0, 0.5)])
        I = gk.intersect(seg, unit_square())
        assert I.intrinsic_dim == 1
        assert gk.volume(I) == pytest.approx(1.0)

    def test_crossing_segments_meet_in_point(self):
        a = gk.from_vrep([(-1, 0), (1, 0)])
        b = gk.from_vrep([(0.25, -1), (0.25, 1)])
        I = gk.intersect(a, b)
        assert I.intrinsic_dim == 0
        assert I.vrep[0] == pytest.approx([0.25, 0.0])

    def test_collinear_segments_overlap(self):
        # rotated common line, endpoints from independent float data
        th = 0.7
        d = np.array([math.cos(th), math.sin(th)])
        p0 = np.array([0.05, 0.11])
        A = gk.from_vrep([p0 + 0.1 * d, p0 + 0.9 * d])
        B = gk.from_vrep([p0 + 0.5 * d, p0 + 1.4 * d])
        I = gk.intersect(A, B)
        assert I.intrinsic_dim == 1
        assert gk.volume(I) == pytest.approx(0.4, abs=1e-9)
        assert gk.sym_diff_volume(A, B) == pytest.approx(0.9, abs=1e-9)

    def test_collinear_segments_with_hull_noise(self):
        """Endpoints perturbed off the common line by ~1e-12: the mapped
        pinning rows of the other operand are then noise-dominated and must be
        treated as constant on the hull, not normalized into spurious cuts."""
        th = 0.7
        d = np.array([math.cos(th), math.sin(th)])
        n_perp = np.array([-math.sin(th), math.cos(th)])
        p0 = np.array([0.05, 0.11])
        A = gk.from_vrep([p0 + 0.1 * d, p0 + 0.9 * d])
        B = gk.from_vrep([p0 + 0.5 * d + 1e-12 * n_perp, p0 + 1.4 * d - 1e-12 * n_perp])
        assert gk.same_affine_hull(A, B)
        I = gk.intersect(A, B)
        assert I is not None and I.intrinsic_dim == 1
        assert gk.volume(I) == pytest.approx(0.4, abs=1e-6)
        assert gk.sym_diff_volume(A, B) == pytest.approx(0.9, abs=1e-6)

    def test_near_flat_piece_is_a_segment(self):
        """A cell box cuts a piece of spread 1.25e-9 from a near-flat body,
        its last vertex 5e-9 past x = 0.5; directions no wider than the
        merge distance feas_tol u = 1e-9 (u = 1 for coordinates below 1)
        are noise, so the piece is a segment, not a rank-3 cloud that Qhull
        rejects.  With the vertex 1e-8 past, the piece, of spread 2.5e-9, is
        a valid tetrahedron."""
        for past, k in ((5e-9, 1), (1e-8, 3)):
            R = gk.from_vrep([[0, 0, 0], [0.3, 0, 0], [0, 0.3, 0], [0, 0, 0.3], [0.5 + past, 0.1, 0.1]])
            lo = R.vrep.min(axis=0) + np.array([1, 0, 2]) * 0.125
            box = gk.from_vrep([lo + 0.125 * np.array(c) for c in itertools.product((0, 1), repeat=3)])
            I = gk.intersect(R, box)
            assert I.intrinsic_dim == k
            I.validate()
            assert gk.volume(I) < 5e-9 ** k


class TestMinkowski:
    def test_endpoint_identities(self, rng):
        A = gk.from_vrep(rng.random((5, 2)))
        B = gk.from_vrep(rng.random((5, 2)))
        assert gk.hausdorff(gk.minkowski_interpolate(A, B, 0.0), A) <= 1e-12
        assert gk.hausdorff(gk.minkowski_interpolate(A, B, 1.0), B) <= 1e-12

    def test_point_to_square_scaling(self):
        P = gk.from_vrep([(0.0, 0.0)])
        mid = gk.minkowski_interpolate(P, unit_square(), 0.5)
        assert gk.volume(mid) == pytest.approx(0.25)
        assert mid.vrep.max() == pytest.approx(0.5)

    def test_crossed_segments_fill_square(self):
        # pairwise midpoints of the 2x2 endpoint grid are the corners of [0,1/2]^2
        A = gk.from_vrep([(0, 0), (1, 0)])
        B = gk.from_vrep([(0, 0), (0, 1)])
        mid = gk.minkowski_interpolate(A, B, 0.5)
        assert mid.intrinsic_dim == 2
        assert gk.volume(mid) == pytest.approx(0.25)

    def test_geodesic_property(self, rng):
        for _ in range(20):
            A = gk.from_vrep(rng.random((4, 2)))
            B = gk.from_vrep(rng.random((5, 2)))
            t, s = np.sort(rng.random(2))
            lhs = gk.hausdorff(gk.minkowski_interpolate(A, B, t), gk.minkowski_interpolate(A, B, s))
            assert lhs <= (s - t) * gk.hausdorff(A, B) + 1e-9


class TestSymDiffVolume:
    def test_identical(self):
        assert gk.sym_diff_volume(unit_square(), unit_square()) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_intervals(self):
        a = gk.from_vrep([[0.0], [1.0]])
        b = gk.from_vrep([[0.5], [1.5]])
        assert gk.sym_diff_volume(a, b) == pytest.approx(1.0)

    def test_shifted_squares(self):
        A = unit_square()
        B = gk.translate(A, np.array([0.5, 0.5]))
        assert gk.sym_diff_volume(A, B) == pytest.approx(1.5)

    def test_hull_mismatch_raises(self):
        with pytest.raises(AffineHullMismatch):
            gk.sym_diff_volume(unit_square(), gk.from_vrep([(0, 0), (1, 0)]))


class TestEnclosingBall:
    def test_square(self):
        c, r = gk.enclosing_ball(unit_square())
        assert c == pytest.approx([0.5, 0.5], abs=1e-9)
        assert r == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    def test_segment(self):
        c, r = gk.enclosing_ball(gk.from_vrep([(0, 0), (1, 0)]))
        assert c == pytest.approx([0.5, 0.0], abs=1e-9)
        assert r == pytest.approx(0.5)

    def test_equilateral_attains_planar_bound(self):
        # circumradius of the side-1 equilateral triangle: 1/sqrt(3), which
        # matches diam * sqrt(m/(2(m+1))) at m=2 (the extremal case)
        P = gk.from_vrep([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        _, r = gk.enclosing_ball(P)
        assert r == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert r == pytest.approx(gk.diameter(P) * math.sqrt(2.0 / 6.0), abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_radius_bound_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        P = gk.from_vrep(rng.random((int(rng.integers(m + 1, 9)), m)))
        c, r = gk.enclosing_ball(P)
        assert np.max(np.linalg.norm(P.vrep - c, axis=1)) <= r + 1e-9
        assert r <= gk.diameter(P) * math.sqrt(m / (2.0 * (m + 1.0))) + 1e-9

    def test_four_cube_is_exact(self):
        cube = gk.from_vrep(list(itertools.product((0.0, 1.0), repeat=4)))
        c, r = gk.enclosing_ball(cube)
        assert c == pytest.approx(np.full(4, 0.5), abs=1e-9)
        assert r == pytest.approx(1.0, abs=1e-9)


class TestProjectTranslateScale:
    def test_project_square_to_axis(self):
        axis = gk.AffineFrame(origin=np.zeros(2), basis=np.array([[1.0], [0.0]]))
        P = gk.project(unit_square(), axis)
        assert P.intrinsic_dim == 1
        assert P.vrep == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_project_triangle_to_diagonal(self):
        diag = gk.AffineFrame(origin=np.zeros(2), basis=np.array([[1.0], [1.0]]) / math.sqrt(2))
        P = gk.project(tri_simplex(), diag)
        assert P.vrep == pytest.approx(np.array([[0.0, 0.0], [0.5, 0.5]]), abs=1e-12)

    def test_project_point(self):
        diag = gk.AffineFrame(origin=np.zeros(2), basis=np.array([[1.0], [0.0]]))
        P = gk.project(gk.from_vrep([(0.3, 0.8)]), diag)
        assert P.vrep[0] == pytest.approx([0.3, 0.0])

    def test_translate_and_scale_bookkeeping(self):
        P = unit_square()
        T = gk.translate(P, np.array([2.0, -1.0]))
        T.validate()
        assert gk.volume(T) == pytest.approx(1.0)
        S = gk.scale(P, 2.0)
        S.validate()
        assert gk.volume(S) == pytest.approx(4.0)


class TestVolumeLipschitzConstant:
    def test_planar_value(self):
        # 2m*vol(B_2)*(diam*sqrt(m/(2(m+1))))^(m-1) at m=2, diam=sqrt(2):
        # 4*pi*sqrt(2)/sqrt(3) = 4*pi*sqrt(6)/3
        want = 4.0 * math.pi * math.sqrt(6.0) / 3.0
        assert gk.volume_lipschitz_constant(math.sqrt(2.0), 2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(("diam", "m"), [(1e110, 4), (1.7e308, 2)])
    def test_overflowing_constant_is_a_value_error(self, diam, m):
        """Past the largest double: Python's power raises OverflowError on
        (1e110)^3, and the product of a finite power overflows to inf."""
        with pytest.raises(ValueError, match=f"{m}-volume Lipschitz constant"):
            gk.volume_lipschitz_constant(diam, m)

    def test_volume_difference_bound_random(self, rng):
        L = gk.volume_lipschitz_constant(math.sqrt(2.0), 2)
        for _ in range(100):
            A = gk.from_vrep(rng.random((6, 2)))
            B = gk.from_vrep(rng.random((6, 2)))
            sym = gk.sym_diff_volume(A, B)
            assert abs(gk.volume(A) - gk.volume(B)) <= sym + 1e-12
            assert sym <= L * gk.hausdorff(A, B) + 1e-7
