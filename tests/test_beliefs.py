"""Uniform-law expectations, sampling, and measure distances.

The total-variation oracle here integrates the absolute density difference by
vertical strips: within a strip the inner integral over y2 is an exact
interval-overlap computation straight from the H-representations, so the only
discretization is along y1 where the integrand is piecewise linear.
"""

import dataclasses
import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
import pytest
from hypothesis import given, strategies as st

import movingbeliefs.beliefs as bl
import movingbeliefs.geomkernel as gk
from movingbeliefs.errors import (
    DegreeCapExceeded,
    PositivityViolation,
    ResolutionTooCoarse,
    SolverStall,
)

TOL = gk.DEFAULT_TOL


def unit_square():
    return gk.from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])


def trapezoid(x):
    return gk.from_vrep([(0.0, 0.0), (1.0, 0.0), (1.0, x), (x**0.25, x)])


def wedge(q, x):
    return gk.from_vrep([(0.0, -x), (1.0, -x), (1.0, x**q), (0.0, 0.0)])


Y1 = bl.Polynomial.coordinate(0, 2)


def _slab(P: gk.Polytope, xs: np.ndarray):
    """Exact [lo(y1), hi(y1)] of the vertical section of P at each y1 in xs;
    empty sections come out with hi < lo."""
    M, q = P.hrep
    lo = np.full(xs.shape, -1e18)
    hi = np.full(xs.shape, 1e18)
    ok = np.ones(xs.shape, dtype=bool)
    for i in range(M.shape[0]):
        a, b = M[i]
        rhs = q[i] - a * xs
        if abs(b) < 1e-14:
            ok &= rhs >= -1e-12
        elif b > 0:
            hi = np.minimum(hi, rhs / b)
        else:
            lo = np.maximum(lo, rhs / b)
    hi = np.where(ok, hi, lo - 1.0)
    return lo, hi


def tv_strip_oracle(P: gk.Polytope, Q: gk.Polytope, n: int = 20000) -> float:
    """integral |1_P/vol(P) - 1_Q/vol(Q)| by midpoint strips in y1 with the
    inner y2 integral done exactly by interval overlap."""
    lo = min(P.vrep[:, 0].min(), Q.vrep[:, 0].min())
    hi = max(P.vrep[:, 0].max(), Q.vrep[:, 0].max())
    xs = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
    h = (hi - lo) / n
    p_lo, p_hi = _slab(P, xs)
    q_lo, q_hi = _slab(Q, xs)
    len_p = np.clip(p_hi - p_lo, 0.0, None)
    len_q = np.clip(q_hi - q_lo, 0.0, None)
    ov = np.clip(np.minimum(p_hi, q_hi) - np.maximum(p_lo, q_lo), 0.0, None)
    dp, dq = 1.0 / gk.volume(P), 1.0 / gk.volume(Q)
    inner = (len_p - ov) * dp + (len_q - ov) * dq + ov * abs(dp - dq)
    return float(inner.sum() * h)


class TestPolynomial:
    def test_eval_and_degree(self):
        f = bl.Polynomial.from_dict({(2, 1): 3.0, (0, 0): -1.0}, 2)
        assert f.degree == 3
        assert f(np.array([[2.0, 5.0]]))[0] == pytest.approx(3 * 4 * 5 - 1)

    def test_multiply(self):
        f = bl.Polynomial.from_dict({(1, 0): 1.0}, 2)
        g = bl.Polynomial.from_dict({(0, 1): 2.0, (0, 0): 1.0}, 2)
        fg = f.multiply(g)
        assert fg(np.array([[3.0, 4.0]]))[0] == pytest.approx(3 * (2 * 4 + 1))

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            bl.Polynomial.from_dict({(9, 0): 1.0}, 2)


class TestQuadratureRule:
    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    )
    def test_monomial_exactness(self, k, exps):
        """Dirichlet closed form: the integral of prod t_i^a_i over the
        standard simplex is (prod a_i!) / (k + sum a_i)!."""
        exps = tuple((exps + [0, 0, 0])[:k])
        if sum(exps) > 8:
            return
        simplex = np.vstack([np.zeros(k), np.eye(k)])
        f = bl.Polynomial.from_dict({exps: 1.0}, k)
        avg = bl.simplex_average(f, simplex, sum(exps))
        num = 1
        for a in exps:
            num *= math.factorial(a)
        want = num / math.factorial(k + sum(exps))
        got = avg / math.factorial(k)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stack_matches_one_simplex_at_a_time(self, m):
        """One call over the whole triangulation of a hull gives each simplex
        the average that the rule applied to that simplex alone gives."""
        P = gk.from_vrep(np.random.default_rng(m).standard_normal((10 * m, m)))
        S, _ = P.triangulation
        f = bl.Polynomial.from_dict({(2,) + (1,) * (m - 1): 1.0, (0,) * (m - 1) + (1,): -0.5}, m)
        pts, wts = bl._gm_rule(m, f.degree // 2)
        single = [float(wts @ f(V[0] + pts @ (V[1:] - V[0])) / wts.sum()) for V in P.vrep[S]]
        stacked = bl.simplex_average(f, P.vrep[S], f.degree)
        np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=1e-14)


class TestExpectNeutral:
    def test_trapezoid_first_coordinate(self):
        # direct integration: int y1 over the trapezoid = x/2 - x^(3/2)/6,
        # divided by the area x(1 - x^(1/4)/2); at x = 1/16 this is 11/18
        x = 1.0 / 16.0
        oracle = (x / 2 - x**1.5 / 6) / (x * (1 - x**0.25 / 2))
        assert oracle == pytest.approx(11.0 / 18.0)
        assert bl.expect_neutral(trapezoid(x), Y1) == pytest.approx(oracle, abs=1e-12)

    def test_normalization_is_exact(self):
        one = bl.Polynomial.constant(1.0, 2)
        assert bl.expect_neutral(trapezoid(0.37), one) == 1.0
        assert bl.expect_neutral(unit_square(), one) == 1.0

    def test_wedge_first_coordinate(self):
        # int y1 = x^q/3 + x/2 over volume x + x^q/2; at q=2, x=1: 5/9
        q, x = 2.0, 1.0
        oracle = (x**q / 3 + x / 2) / (x + x**q / 2)
        assert oracle == pytest.approx(5.0 / 9.0)
        assert bl.expect_neutral(wedge(q, x), Y1) == pytest.approx(oracle, abs=1e-12)

    def test_dirac_on_singleton(self):
        P = gk.from_vrep([(0.3, 0.9)])
        assert bl.expect_neutral(P, Y1) == pytest.approx(0.3)

    def test_exact_vs_monte_carlo(self, rng):
        """Opaque path agrees with the polynomial path within 4 standard errors."""
        for _ in range(5):
            P = gk.from_vrep(rng.random((6, 2)))
            exps = {(int(a), int(b)): float(rng.normal()) for a, b in rng.integers(0, 3, size=(3, 2))}
            f = bl.Polynomial.from_dict(exps, 2)
            exact = bl.expect_neutral(P, f)
            mc, se = bl.expect_neutral_with_error(
                P, bl.Opaque(fn=f, dim=2), n_samples=100_000
            )
            assert abs(mc - exact) <= 4 * max(se, 1e-12)

    @pytest.mark.parametrize("n", [0, 1])
    def test_standard_error_needs_two_samples(self, n):
        P = gk.from_vrep([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError, match="at least 2 samples"):
            bl.expect_neutral_with_error(P, bl.Opaque(fn=lambda y: y[:, 0], dim=2), n_samples=n)

    def test_hit_and_run_error_matches_spread(self):
        """4-D samples are i.i.d.; over 30 seeds the spread of the estimate
        stays within 30% of the median reported error."""
        P = gk.from_vrep(np.random.default_rng(2).standard_normal((30, 4)))
        f = bl.Opaque(fn=lambda y: y[:, 0], dim=4)
        runs = [
            bl.expect_neutral_with_error(P, f, dataclasses.replace(TOL, rng_seed=s), n_samples=500)
            for s in range(30)
        ]
        est, se = np.array(runs).T
        assert 0.7 <= np.std(est, ddof=1) / np.median(se) <= 1.3


class TestExpectDensity:
    def test_constant_density_reduces_to_neutral(self):
        P = trapezoid(0.5)
        h1 = bl.Polynomial.constant(1.0, 2)
        h2 = bl.Polynomial.constant(2.0, 2)
        base = bl.expect_neutral(P, Y1)
        assert bl.expect_density(P, h1, Y1) == pytest.approx(base, abs=1e-12)
        assert bl.expect_density(P, h2, Y1) == pytest.approx(base, abs=1e-12)

    def test_interval_hand_integration(self):
        # int y(y+1) / int (y+1) over [0,1] = (5/6)/(3/2) = 5/9
        seg = gk.from_vrep([[0.0], [1.0]])
        h = bl.Polynomial.from_dict({(1,): 1.0, (0,): 1.0}, 1)
        f = bl.Polynomial.coordinate(0, 1)
        assert bl.expect_density(seg, h, f) == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_positivity_enforced(self):
        seg = gk.from_vrep([[0.0], [1.0]])
        h = bl.Polynomial.from_dict({(1,): 1.0, (0,): -0.5}, 1)  # negative on [0, 0.5)
        with pytest.raises(PositivityViolation):
            bl.expect_density(seg, h, bl.Polynomial.coordinate(0, 1))

    def test_affine_density_checked_at_the_vertices(self, monkeypatch):
        """h = y1 + y2 - 1e-4 is negative only on a corner of area 5e-9 that
        samples miss; its minimum over the square sits at the vertex (0, 0)."""
        calls = []
        monkeypatch.setattr(bl, "sample_uniform", lambda *a, **k: calls.append(a) or a[0].vrep)
        h = bl.Polynomial.from_dict({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1e-4}, 2)
        with pytest.raises(PositivityViolation):
            bl.expect_density(unit_square(), h, Y1)
        assert calls == []

    def test_nonaffine_densities_are_sampled(self):
        """Positive at the four vertices, negative on a disk of radius 0.1
        about the centre: only the samples can see it."""
        terms = {(2, 0): 1.0, (1, 0): -1.0, (0, 2): 1.0, (0, 1): -1.0, (0, 0): 0.49}
        h = bl.Polynomial.from_dict(terms, 2)
        for density in (h, bl.Opaque(fn=h, dim=2)):
            with pytest.raises(PositivityViolation):
                bl.expect_density(unit_square(), density, Y1)

    def test_degree_cap_products_stay_exact(self):
        # h and f both at the degree cap: the internal product has degree 16
        # and the quadrature degree must follow; hand value on [0,1]:
        # int y^8(y^8+1) / int (y^8+1) = (1/17 + 1/9) / (1/9 + 1)
        seg = gk.from_vrep([[0.0], [1.0]])
        h = bl.Polynomial.from_dict({(8,): 1.0, (0,): 1.0}, 1)
        f = bl.Polynomial.from_dict({(8,): 1.0}, 1)
        want = (1 / 17 + 1 / 9) / (1 / 9 + 1)
        assert bl.expect_density(seg, h, f) == pytest.approx(want, abs=1e-12)


class TestSampling:
    def test_square_statistics(self):
        pts = bl.sample_uniform(unit_square(), 100_000, seed=11)
        assert pts.mean(axis=0) == pytest.approx([0.5, 0.5], abs=0.01)
        assert np.mean(pts[:, 0] < 0.5) == pytest.approx(0.5, abs=0.01)

    def test_trapezoid_mean_matches_exact(self):
        x = 1.0 / 16.0
        pts = bl.sample_uniform(trapezoid(x), 100_000, seed=3)
        assert pts[:, 0].mean() == pytest.approx(11.0 / 18.0, abs=0.01)

    def test_deterministic_under_seed(self):
        a = bl.sample_uniform(unit_square(), 64, seed=5)
        b = bl.sample_uniform(unit_square(), 64, seed=5)
        assert (a == b).all()

    def test_degenerate_support(self):
        pts = bl.sample_uniform(gk.from_vrep([(0.5, 0.25)]), 8, seed=1)
        assert (pts == np.array([0.5, 0.25])).all()

    def test_segment_samples_stay_on_hull(self):
        seg = gk.from_vrep([(0, 0), (1, 1)])
        pts = bl.sample_uniform(seg, 1000, seed=9)
        assert np.abs(pts[:, 0] - pts[:, 1]).max() < 1e-12

    def test_hit_and_run_in_dimension_four(self, rng):
        cube = gk.from_vrep([v for v in np.ndindex(2, 2, 2, 2)])
        pts = bl.sample_uniform(cube, 4000, seed=13)
        assert pts.mean(axis=0) == pytest.approx([0.5] * 4, abs=0.05)

    @pytest.mark.parametrize(
        "cloud",
        [
            np.random.default_rng(1).standard_normal((2, 3)),
            np.random.default_rng(2).standard_normal((9, 2)),
            np.random.default_rng(3).standard_normal((7, 2)) @ np.random.default_rng(4).standard_normal((2, 3)),
            np.random.default_rng(5).standard_normal((14, 3)),
            np.random.default_rng(6).standard_normal((30, 4)),
        ],
        ids=["segment-R3", "polygon", "polygon-in-R3", "hull3d", "hull4d"],
    )
    def test_samples_satisfy_hrep(self, cloud):
        P = gk.from_vrep(cloud)
        M, q = P.hrep
        pts = bl.sample_uniform(P, 5000, seed=7)
        assert pts.shape == (5000, P.ambient_dim)
        assert np.max(pts @ M.T - q) <= TOL.feas_tol

    @pytest.mark.parametrize(
        "cloud",
        [
            np.random.default_rng(12).standard_normal((10, 2)),
            np.random.default_rng(13).standard_normal((16, 3)),
            np.random.default_rng(14).standard_normal((30, 4)) * [1.0, 0.8, 0.6, 0.5],
            np.vstack([np.zeros(4), np.diag([1.0, 1e-3, 1e-3, 1e-3])]),
        ],
        ids=["hull2d", "hull3d", "hull4d", "needle4d"],
    )
    def test_moments_match_exact(self, cloud):
        """Sample means of y_i and y_i y_j agree with the exact polynomial
        expectations within 5 standard errors of the sample."""
        P = gk.from_vrep(cloud)
        m = P.ambient_dim
        n = 40_000
        pts = bl.sample_uniform(P, n, seed=21)
        for i, j in itertools.combinations_with_replacement(range(-1, m), 2):
            exps = [0] * m
            for a in (i, j):
                if a >= 0:
                    exps[a] += 1
            if not any(exps):
                continue
            f = bl.Polynomial.from_dict({tuple(exps): 1.0}, m)
            vals = f(pts)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - bl.expect_neutral(P, f)) <= 5 * se

    def test_deterministic_under_seed_in_dimension_four(self):
        P = gk.from_vrep(np.random.default_rng(8).standard_normal((25, 4)))
        a = bl.sample_uniform(P, 300, seed=17)
        assert (a == bl.sample_uniform(P, 300, seed=17)).all()
        assert not (a == bl.sample_uniform(P, 300, seed=18)).all()


class TestTvDistance:
    def test_identical(self):
        pair = bl.MeasurePair.make(unit_square(), unit_square())
        assert pair.common_hull
        assert bl.tv_distance(pair) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_intervals_hand_value(self):
        # densities 1 on [0,1] and [0.5,1.5]: integral of |diff| = 0.5 + 0.5
        a = gk.from_vrep([[0.0], [1.0]])
        b = gk.from_vrep([[0.5], [1.5]])
        assert bl.tv_distance(bl.MeasurePair.make(a, b)) == pytest.approx(1.0)

    def test_mutually_singular_dimensions(self):
        seg = gk.from_vrep([(0, 0), (1, 0)])
        pair = bl.MeasurePair.make(seg, unit_square())
        assert not pair.common_hull
        assert bl.tv_distance(pair) == 2.0

    def test_closed_form_vs_strip_oracle(self, rng):
        for _ in range(50):
            A = gk.from_vrep(rng.random((6, 2)))
            B = gk.from_vrep(rng.random((6, 2)))
            got = bl.tv_distance(bl.MeasurePair.make(A, B))
            assert got == pytest.approx(tv_strip_oracle(A, B), abs=1e-3)


class TestW1Distance:
    def test_translated_intervals_exact(self):
        for a in (0.25, 1.0, 3.5):
            p = gk.from_vrep([[0.0], [1.0]])
            q = gk.from_vrep([[a], [1.0 + a]])
            w, err = bl.w1_distance(bl.MeasurePair.make(p, q))
            assert err == 0.0
            assert w == pytest.approx(a, abs=1e-12)

    def test_nested_fibers_quantile_value(self):
        # quantile functions x+t(1-x) and x'+t(1-x'): the difference is
        # (x-x')(1-t), whose integral over t in [0,1] is |x-x'|/2
        for x, x2 in [(0.2, 0.5), (0.0, 0.9)]:
            p = gk.from_vrep([(x, 0.0), (1.0, 0.0)])
            q = gk.from_vrep([(x2, 0.0), (1.0, 0.0)])
            w, err = bl.w1_distance(bl.MeasurePair.make(p, q))
            assert err == 0.0
            assert w == pytest.approx(abs(x - x2) / 2, abs=1e-12)

    def test_identical(self):
        P = unit_square()
        w, _ = bl.w1_distance(bl.MeasurePair.make(P, P), resolution=0.25)
        assert w == pytest.approx(0.0, abs=1e-9)

    def test_dirac_pair(self):
        a = gk.from_vrep([(0.0, 0.0)])
        b = gk.from_vrep([(3.0, 4.0)])
        w, err = bl.w1_distance(bl.MeasurePair.make(a, b))
        assert (w, err) == (5.0, 0.0)

    def test_translated_squares_respect_error_bound(self):
        A = unit_square()
        B = gk.translate(A, np.array([0.3, 0.0]))
        w, err = bl.w1_distance(bl.MeasurePair.make(A, B), resolution=0.125)
        assert abs(w - 0.3) <= err  # translation by (a, 0) moves mass exactly a

    def test_resolution_floor(self):
        with pytest.raises(ResolutionTooCoarse):
            bl.w1_distance(bl.MeasurePair.make(unit_square(), unit_square()), resolution=1.0)

    def test_point_against_polygon_is_too_coarse(self):
        with pytest.raises(ResolutionTooCoarse):
            bl.w1_distance(bl.MeasurePair.make(gk.from_vrep([(0.45, 0.45)]), unit_square()), resolution=0.1)

    def test_quantile_formula_vs_numeric_quadrature(self, rng):
        """Independent oracle: trapezoidal quadrature of |F^-1 - G^-1|."""
        for _ in range(20):
            a, c = rng.uniform(-2, 2, size=2)
            b = a + rng.uniform(0.1, 2)
            d = c + rng.uniform(0.1, 2)
            t = np.linspace(0, 1, 200_001)
            oracle = np.trapezoid(np.abs(a + t * (b - a) - c - t * (d - c)), t)
            p = gk.from_vrep([[a], [b]])
            q = gk.from_vrep([[c], [d]])
            w, _ = bl.w1_distance(bl.MeasurePair.make(p, q))
            assert w == pytest.approx(oracle, abs=1e-8)

    def test_duality_lower_bound(self, rng):
        """|E_P[f] - E_Q[f]| <= W1 + error for 1-Lipschitz polynomial tests."""
        tests = [
            bl.Polynomial.coordinate(0, 2),
            bl.Polynomial.coordinate(1, 2),
            bl.Polynomial.from_dict({(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}, 2),
        ]
        for _ in range(10):
            A = gk.from_vrep(rng.random((5, 2)))
            B = gk.from_vrep(rng.random((5, 2)))
            w, err = bl.w1_distance(bl.MeasurePair.make(A, B), resolution=0.05)
            for f in tests:
                gap = abs(bl.expect_neutral(A, f) - bl.expect_neutral(B, f))
                assert gap <= w + err + 1e-9

    def test_marginal_totals_one_ulp_apart(self):
        """The two normalized mass vectors sum to 1 only up to an ulp; with
        both marginal systems in full the LP was declared infeasible."""
        rng = np.random.default_rng(27)
        A = gk.from_vrep(rng.random((8, 2)))
        B = gk.from_vrep(rng.random((8, 2)))
        w, err = bl.w1_distance(bl.MeasurePair.make(A, B), resolution=0.05)
        gap = abs(bl.expect_neutral(A, Y1) - bl.expect_neutral(B, Y1))
        assert gap <= w + err

    def test_axis_parallel_segment_on_a_grid_line(self):
        """y = 0.5 lies on a grid line, so its cell range on y is empty by the
        floor rule; the segment must still be discretized."""
        P = gk.from_vrep([(0.1, 0.5), (0.9, 0.5)])
        Q = gk.from_vrep([(0.0, 0.0), (1.0, 1.0)])
        w, err = bl.w1_distance(bl.MeasurePair.make(P, Q), resolution=0.05)
        # |y2 - 0.5| is 1-Lipschitz with means 0 and 1/4; the coupling
        # (0.1 + 0.8 t, 0.5) -> (t, t) has cost at most its trapezoid sum
        t = np.linspace(0.0, 1.0, 100_001)
        coupling = np.trapezoid(np.hypot(0.1 - 0.2 * t, t - 0.5), t)
        assert 0.25 - err <= w <= coupling + err

    def test_lp_failure_is_a_solver_stall(self):
        """A negative mass makes the LP infeasible; HiGHS's status is named."""
        a, b = np.array([1.5, -0.5]), np.array([0.5, 0.5])
        with pytest.raises(SolverStall, match="HiGHS model status Infeasible"):
            bl._transport_lp(a, b, np.ones((2, 2)))

    def test_transport_matrix_is_the_full_system_less_its_last_row(self, monkeypatch):
        """The (n1 + n2 - 1)-row column-wise matrix is built directly; it
        equals the full marginal system with its last row sliced off, entry
        for entry."""
        seen = []
        real = bl.linprog
        monkeypatch.setattr(bl, "linprog", lambda *a: seen.append(a) or real(*a))
        for n1, n2 in ((1, 1), (1, 4), (3, 1), (5, 7), (9, 4)):
            a, b = np.full(n1, 1 / n1), np.full(n2, 1 / n2)
            cost = np.random.default_rng([n1, n2]).random((n1, n2))
            bl._transport_lp(a, b, cost)
            c, start, index, value, b_eq = seen[-1]
            want = sparse.csc_array(full_transport_system(n1, n2)[:-1])
            assert np.array_equal(c, cost.ravel())
            assert np.array_equal(b_eq, np.concatenate([a, b])[:-1])
            for got, name in ((start, "indptr"), (index, "indices"), (value, "data")):
                assert np.array_equal(got, getattr(want, name))

    def test_near_flat_cell_piece(self):
        """A cell cuts three nearly coincident points off this tetrahedron;
        building that piece as a polytope failed in Qhull."""
        T = np.array([[0, 0, 0], [0.3, 0, 0], [0, 0.3, 0], [0, 0, 0.3], [0.5 + 1e-8, 0.1, 0.1]])
        A, B = gk.from_vrep(T), gk.from_vrep(T[:4] + 0.1)
        w, err = bl.w1_distance(bl.MeasurePair.make(A, B), resolution=0.125)
        gap = abs(bl.expect_neutral(A, bl.Polynomial.coordinate(0, 3))
                  - bl.expect_neutral(B, bl.Polynomial.coordinate(0, 3)))
        assert math.isfinite(w) and gap <= w + err

    @pytest.mark.parametrize("resolution", [0.0, -0.1, math.nan, math.inf, 1e-300])
    def test_unusable_resolution_is_a_value_error(self, resolution):
        """Not positive and finite, or finer than 2**-52 of the span: no
        grid is drawn and no overflow warning is raised."""
        pair = bl.MeasurePair.make(unit_square(), gk.translate(unit_square(), np.array([0.5, 0.0])))
        with pytest.raises(ValueError, match="resolution"):
            bl.w1_distance(pair, resolution)

    def test_column_cap_is_checked_before_the_cut_and_before_the_cost(self, monkeypatch):
        """A support whose bounding box meets more cells than the cap is
        refused before it is cut; pieces whose product exceeds it, before
        the cost matrix is built."""
        pair = bl.MeasurePair.make(unit_square(), gk.translate(unit_square(), np.array([0.5, 0.0])))
        with pytest.raises(ValueError, match="100000000 grid cells meet one support"):
            bl.w1_distance(pair, 1e-4)
        monkeypatch.setattr(bl, "MAX_TRANSPORT_COLUMNS", 100)
        cut, real = [], gk._slab_pieces
        monkeypatch.setattr(gk, "_slab_pieces", lambda *a: cut.append(1) or real(*a))
        with pytest.raises(ValueError, match="400 grid cells meet one support"):
            bl.w1_distance(pair, 0.05)
        assert not cut
        with pytest.raises(ValueError, match="64 x 64 transport columns, above the cap of 100"):
            bl.w1_distance(pair, 0.125)

    def test_column_cap_counts_the_pieces_of_a_thin_body(self):
        """Two parallel diagonal unit segments in 3-space: their bounding
        boxes meet about 1.1e7 cells each, above the cap, but a segment is
        cut into at most 1 + 3 * 222 pieces, so the pair is solved."""
        seg = gk.from_vrep([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        w, err = bl.w1_distance(bl.MeasurePair.make(seg, gk.translate(seg, np.array([0.1, 0.0, 0.0]))), 0.0045)
        assert abs(w - 0.1) <= err

    def test_column_cap_admits_resolution_0_02_on_unit_size_pairs(self):
        """ROADMAP item 3's resolution: unit squares off the grid meet
        51 x 51 cells each, and their dense LP is within the cap."""
        lo, cells = np.zeros(2), np.array([76, 76])
        squares = [gk.translate(unit_square(), np.array([s, s])) for s in (0.01, 0.51)]
        sizes = [len(bl._grid_pieces(R, lo, 0.02, cells, eps(R))[0]) for R in squares]
        assert sizes == [2601, 2601] and sizes[0] * sizes[1] <= bl.MAX_TRANSPORT_COLUMNS


def eps(R):
    """The length tolerance ``w1_distance`` cuts R's grid pieces at when R is
    the larger support."""
    return TOL.feas_tol * gk._unit(R.vrep)


def cell_reference(R, lo, resolution, cells):
    """Masses and centroids of R in each grid cell, one box polytope and one
    intersection per cell."""
    r_lo, r_hi = R.bounding_box()
    i_lo = np.clip(np.floor((r_lo - lo) / resolution).astype(int), 0, cells - 1)
    i_hi = np.clip(np.floor((r_hi - lo) / resolution - 1e-12).astype(int), i_lo, cells - 1)
    m = R.ambient_dim
    masses, cents = [], []
    for idx in itertools.product(*[range(a, b + 1) for a, b in zip(i_lo, i_hi)]):
        c_lo = lo + np.array(idx) * resolution
        box = gk.from_vrep(list(itertools.product(*zip(c_lo, c_lo + resolution))))
        piece = gk.intersect(R, box)
        if piece is None or piece.intrinsic_dim < R.intrinsic_dim:
            continue
        masses.append(gk.volume(piece))
        cents.append([bl.expect_neutral(piece, bl.Polynomial.coordinate(i, m)) for i in range(m)])
    return np.array(masses), np.array(cents)


def octagon(rng):
    a = np.arange(8) * np.pi / 4 + rng.uniform(-0.15, 0.15, 8)
    return gk.from_vrep(0.5 + 0.3 * np.column_stack([np.cos(a), np.sin(a)]))


def tilted(rng, k, m):
    """A random k-simplex centred at (0.5, ..., 0.5), radius 0.4, on a random
    k-flat in R^m."""
    basis = np.linalg.qr(rng.standard_normal((m, k)))[0]
    t = rng.standard_normal((k + 1, k))
    t -= t.mean(axis=0)
    return gk.from_vrep(0.5 + 0.4 * t / np.linalg.norm(t, axis=1).max() @ basis.T)


class TestGridPieces:
    @pytest.mark.parametrize(
        "make, resolution",
        [
            (octagon, 0.075),
            (lambda rng: gk.from_vrep(rng.random((8, 3))), 0.15),
            (lambda rng: tilted(rng, 2, 3), 0.05),
            (lambda rng: tilted(rng, 1, 2), 0.05),
            (lambda rng: tilted(rng, 1, 3), 0.05),
            (lambda rng: gk.from_vrep([(0.1, 0.5), (0.9, 0.5)]), 0.05),
            (lambda rng: gk.from_vrep([(0.1, 0.5, 0.3), (0.9, 0.5, 0.6)]), 0.05),
        ],
        ids=["octagon", "hull3d", "tilted-triangle", "segment2d", "segment3d", "segment2d-y=0.5", "segment3d-y=0.5"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_cell_intersection(self, make, resolution, seed):
        R = make(np.random.default_rng(seed))
        lo = np.zeros(R.ambient_dim)
        cells = np.full(R.ambient_dim, int(round(1 / resolution)))
        masses, cents = bl._grid_pieces(R, lo, resolution, cells, eps(R))
        ref_m, ref_c = cell_reference(R, lo, resolution, cells)
        assert masses.shape == ref_m.shape
        np.testing.assert_allclose(masses, ref_m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cents, ref_c, rtol=0, atol=1e-12)

    def test_faces_on_grid_planes(self):
        cube = gk.from_vrep(list(itertools.product([0.0, 1.0], repeat=3)))
        moved = gk.translate(cube, np.array([-0.25, 0.0, 0.0]))
        lo, cells = np.array([-0.25, 0.0, 0.0]), np.array([5, 4, 4])
        for R in (cube, moved):
            masses, cents = bl._grid_pieces(R, lo, 0.25, cells, eps(R))
            ref_m, ref_c = cell_reference(R, lo, 0.25, cells)
            assert masses.shape == ref_m.shape == (64,)
            np.testing.assert_allclose(masses, ref_m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cents, ref_c, rtol=0, atol=1e-12)
        w, err = bl.w1_distance(bl.MeasurePair.make(cube, moved), resolution=0.25)
        assert w == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("lo,hi,want", [
        ((0.0, 0.0, 0.0), (1.0 + 5e-10,) * 3, 0.0),  # top faces 5e-10 beyond the last line
        ((0.25 - 5e-10, 0.0, 0.0), (1.0,) * 3, 0.125),  # a bottom face 5e-10 below a line
        ((0.0, 0.0, 0.0), (0.5 + 5e-10, 1.0, 1.0), 0.25),  # a face beside an interior line
    ])
    def test_faces_within_feas_tol_of_grid_planes(self, lo, hi, want):
        """A grid plane within feas_tol of a box's extent is not cut: the
        slab beyond it would hold only the face's four coplanar corners,
        which Delaunay cannot triangulate.  W1 to the unit cube is that of
        the x-marginals, by the quantile formula."""
        R = gk.from_vrep(list(itertools.product(*zip(lo, hi))))
        cube = gk.from_vrep(list(itertools.product([0.0, 1.0], repeat=3)))
        w, err = bl.w1_distance(bl.MeasurePair.make(R, cube), resolution=0.25)
        assert w == pytest.approx(want, abs=1e-8)


def convex_points(rng, n, m=2):
    """n points in convex position, in random order: a rotated, stretched
    and shifted sample of the unit circle (the unit sphere for m > 2)."""
    if m == 2:
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        pts = rng.standard_normal((n, m))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    rot = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (pts * rng.uniform(0.1, 2.0, m)) @ rot.T + rng.uniform(-3.0, 3.0, m)


def random_grid_pieces(rng, R):
    """The stack (T, n, N, C) of R's frame pieces cut by the lines of two
    random directions: a few evenly spaced lines across R, and two more
    between 3e-9 and 1e-6 from vertices, which cut off slivers."""
    N, C = R.intrinsic_facets
    stack = R.vertices_frame, np.array([len(R.vertices_frame)]), N[None], C[None]
    for _ in range(2):
        u = rng.standard_normal(R.intrinsic_dim)
        u /= np.linalg.norm(u)
        p = R.vertices_frame @ u
        near = rng.choice(p, 2) + rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-8.5, -6.0, 2)
        g = np.sort(np.concatenate([np.linspace(p.min(), p.max(), rng.integers(3, 9))[1:-1], near]))
        g = g[(g > p.min() + TOL.feas_tol) & (g < p.max() - TOL.feas_tol)]
        stack = gk._slab_pieces(*stack, u, g, TOL.feas_tol)
    return stack


def split_stack(T, n):
    """The point arrays of the pieces of a stack."""
    return np.split(T, np.cumsum(n)[:-1])


def stack_points(pieces):
    """The point arrays ``pieces`` as one array and their counts."""
    return np.vstack(pieces), np.array([len(V) for V in pieces])


def angle_ring(t):
    """For planar points t, their indices in counterclockwise order of the
    angle about the mean (a ring for the fan); None above the plane."""
    if t.shape[1] != 2:
        return None
    d = t - t.mean(axis=0)
    return np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")


def moments_reference(pieces, k):
    """Masses and centroids piece by piece, one ``gk._simplex_volumes`` call
    each on its ``angle_ring``, leaving out pieces of zero volume."""
    masses, cents = [], []
    for V in pieces:
        S, vols = gk._simplex_volumes(V, k, angle_ring(V))
        if (w := vols.sum()) > 0.0:
            masses.append(w)
            cents.append(vols @ V[S].mean(axis=1) / w)
    return np.array(masses), np.array(cents)


class TestPieceMoments:
    """The stacked moment pass against one ``_simplex_volumes`` call per
    piece.  The volumes are the same determinants; only the order of the
    sums differs (bincount adds in sequence, numpy's sum pairwise from 8
    terms on), so masses agree to 1e-15 relative in the plane, and to 1e-14
    for 3-D pieces of about a hundred simplices."""

    @pytest.mark.parametrize("seed", range(8))
    def test_planar_pieces_match_per_piece_reference(self, seed):
        rng = np.random.default_rng(seed)
        pieces = []
        for n in range(3, 13):
            P = convex_points(rng, n)
            dup = np.vstack([P, P[rng.integers(0, n, 3)]])  # exact repeats
            sliver = P * [1.0, 1e-9]
            pieces += [P, dup[rng.permutation(len(dup))], sliver]
        pieces += split_stack(*random_grid_pieces(rng, gk.from_vrep(convex_points(rng, int(rng.integers(5, 12)))))[:2])
        pieces.append(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))  # zero area: left out
        pieces = [V for V in pieces if len(V) > 2]
        masses, cents = bl._piece_moments(*stack_points(pieces), 2)
        ref_m, ref_c = moments_reference(pieces, 2)
        assert masses.shape == ref_m.shape == (len(pieces) - 1,)
        np.testing.assert_allclose(masses, ref_m, rtol=1e-15, atol=0)
        np.testing.assert_allclose(cents, ref_c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_spatial_pieces_match_per_piece_reference(self, seed):
        rng = np.random.default_rng(seed)
        R = gk.from_vrep(convex_points(rng, 10, 3))
        pieces = [V for V in split_stack(*random_grid_pieces(rng, R)[:2]) if len(V) > 3]
        masses, cents = bl._piece_moments(*stack_points(pieces), 3)
        ref_m, ref_c = moments_reference(pieces, 3)
        assert masses.shape == ref_m.shape
        np.testing.assert_allclose(masses, ref_m, rtol=1e-14, atol=0)
        np.testing.assert_allclose(cents, ref_c, rtol=0, atol=1e-12)


def full_transport_system(n1, n2):
    """The n1 + n2 marginal rows of the n1 x n2 transportation LP, as CSR."""
    rows = np.concatenate([np.repeat(np.arange(n1), n2), n1 + np.tile(np.arange(n2), n1)])
    cols = np.tile(np.arange(n1 * n2), 2)
    return sparse.csr_matrix((np.ones(cols.size), (rows, cols)), shape=(n1 + n2, n1 * n2))


class TestTransportLp:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_presolve_matches_presolve(self, seed):
        """The direct HiGHS call returns the very float that
        ``linprog(method="highs")`` without presolve returns, and the
        presolved optimum to within HiGHS's 1e-7, on random planar
        transportation instances and on totals one ulp apart (six masses of
        1/6 sum to 1 - 2**-53)."""
        rng = np.random.default_rng(seed)
        if seed == 0:
            a, b = np.full(6, 1 / 6), np.full(4, 0.25)
            assert a.sum() == 1.0 - 2.0**-53 and b.sum() == 1.0
        else:
            a, b = rng.random(rng.integers(2, 60)), rng.random(rng.integers(2, 60))
            a, b = a / a.sum(), b / b.sum()
        cost = np.linalg.norm(rng.random((len(a), 2))[:, None] - rng.random((len(b), 2))[None], axis=-1)
        value = bl._transport_lp(a, b, cost)
        lp = dict(A_eq=full_transport_system(len(a), len(b))[:-1], b_eq=np.concatenate([a, b])[:-1],
                  bounds=(0, None), method="highs")
        plain = linprog(cost.ravel(), **lp, options={"presolve": False})
        presolved = linprog(cost.ravel(), **lp, options={"presolve": True})
        assert plain.success and presolved.success
        assert value == plain.fun
        assert value == pytest.approx(presolved.fun, rel=1e-7, abs=0)


class TestW1TvInequality:
    """W1 <= (diam(Y) / 2) * TV for a pair inside a body Y of that diameter,
    holding up to the W1 error bound."""

    @staticmethod
    def sides(pair, y_diam, resolution=None):
        """(W1, its error bound, TV, the bound diam(Y)/2 * TV)."""
        w1, err = bl.w1_distance(pair, resolution)
        tv = bl.tv_distance(pair)
        return w1, err, tv, 0.5 * y_diam * tv

    def test_identical_uniforms(self):
        w1, err, _, bound = self.sides(bl.MeasurePair.make(unit_square(), unit_square()),
                                       y_diam=math.sqrt(2), resolution=0.25)
        assert bound - w1 >= -(err + 1e-9)
        assert bound - w1 == pytest.approx(0.0, abs=1e-9)

    def test_shifted_intervals(self):
        a = gk.from_vrep([[0.0], [1.0]])
        b = gk.from_vrep([[0.5], [1.5]])
        w1, err, _, bound = self.sides(bl.MeasurePair.make(a, b), y_diam=1.5)
        assert w1 == pytest.approx(0.5)
        assert bound == pytest.approx(0.75)
        assert bound - w1 >= -(err + 1e-9)

    def test_disjoint_intervals(self):
        a = gk.from_vrep([[0.0], [1.0]])
        b = gk.from_vrep([[2.0], [3.0]])
        w1, err, tv, bound = self.sides(bl.MeasurePair.make(a, b), y_diam=3.0)
        assert w1 == pytest.approx(2.0)
        assert tv == pytest.approx(2.0)
        assert bound == pytest.approx(3.0)
        assert bound - w1 >= -(err + 1e-9)

    def test_dominance_on_random_pairs(self, rng):
        for _ in range(15):
            A = gk.from_vrep(rng.random((5, 2)))
            B = gk.from_vrep(rng.random((5, 2)))
            hull = gk.from_vrep(np.vstack([A.vrep, B.vrep]))
            w1, err, _, bound = self.sides(
                bl.MeasurePair.make(A, B), y_diam=gk.diameter(hull), resolution=0.05
            )
            assert bound - w1 >= -(err + 1e-9)
