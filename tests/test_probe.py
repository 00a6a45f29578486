"""Sweeps, calmness estimates, and the verification suites."""

import itertools
import math

import numpy as np
import pytest

import movingbeliefs.beliefs as bl
import movingbeliefs.geomkernel as gk
import movingbeliefs.probe as pr
import movingbeliefs.svmaps as sv
from movingbeliefs.errors import DimensionViolation


def trap_phi(x):
    """Closed-form expectation of y1 over the shrinking trapezoid, derived by
    direct integration (int y1 = x/2 - x^(3/2)/6 over area x(1 - x^(1/4)/2))."""
    return (3.0 - math.sqrt(x)) / (6.0 - 3.0 * x**0.25)


def wedge_phi(x, q):
    """(2 x^(q-1) + 3) / (6 + 3 x^(q-1)); direct integration over the wedge."""
    t = x ** (q - 1.0)
    return (2.0 * t + 3.0) / (6.0 + 3.0 * t)


class TestSweepPhi:
    def test_trapezoid_matches_closed_form(self):
        grid = pr.make_grid(1e-6, 1.0, 60, log=True)
        rep = pr.sweep_phi(sv.TrapezoidMap(), grid=grid)
        ref = np.array([trap_phi(x) for x in grid])
        assert np.abs(rep.phi - ref).max() < 1e-9

    def test_divergent_slopes_on_shrinking_grid(self):
        # adjacent difference quotients grow like x^(-3/4) toward zero
        grid = np.array([1e-6, 1e-4, 1e-2])
        rep = pr.sweep_phi(sv.TrapezoidMap(), grid=grid)
        ratios = rep.ratio[1:]
        assert ratios[0] > 10 * ratios[1]
        assert rep.max_ratio > 100

    def test_wedge_bounded_slope(self):
        # phi(x) = (2x+3)/(6+3x) at q=2 has derivative 3/(6+3x)^2 <= 1/12
        grid = pr.make_grid(0.0, 1.0, 40)
        rep = pr.sweep_phi(sv.QMap(q=2.0), grid=grid)
        assert np.abs(rep.phi - np.array([wedge_phi(x, 2.0) for x in grid])).max() < 1e-12
        assert rep.max_ratio <= 1.0 / 12.0 + 1e-9

    def test_report_shapes_and_rows(self):
        grid = pr.make_grid(0.1, 1.0, 5)
        rep = pr.sweep_phi(sv.TrapezoidMap(), grid=grid)
        assert math.isnan(rep.fd[0]) and math.isnan(rep.fd[-1])
        assert math.isnan(rep.ratio[0])
        rows = rep.rows()
        assert list(rows[0].keys()) == ["x", "phi", "fd", "ratio"]

    def test_coincident_points_have_no_ratio(self):
        # no two distinct parameters: as for a single point, the estimate is 0
        for grid in ([0.5, 0.5, 0.5], [0.5]):
            rep = pr.sweep_phi(sv.QMap(q=2.0), grid=grid)
            assert np.isnan(rep.ratio).all()
            assert rep.max_ratio == 0.0

    def test_parameter_dependent_cost_family(self):
        # theta(x, y) = x * y1: the sweep sees phi(x) = x * E[y1 over S(x)]
        def theta(x):
            return bl.Polynomial.from_dict({(1, 0): float(x)}, 2)

        grid = pr.make_grid(0.1, 1.0, 7)
        rep = pr.sweep_phi(sv.TrapezoidMap(), theta=theta, grid=grid)
        ref = grid * np.array([trap_phi(x) for x in grid])
        assert np.abs(rep.phi - ref).max() < 1e-12


class TestQuotients:
    def test_adjacent_quotients_with_nan_at_the_first_point(self):
        q = pr.quotients(sv.QMap(), [0.0, 0.5, 1.5], [1.0, 3.0])
        assert np.isnan(q[0]) and q[1:].tolist() == [2.0, 3.0]

    def test_coincident_points_and_nan_gaps_have_no_quotient(self):
        q = pr.quotients(sv.QMap(), [0.1, 0.1, 0.3, 0.5, 0.5, 0.7], [0.0, 0.4, np.nan, 1.0, 0.2])
        assert np.isnan(q[[0, 1, 3, 4]]).all()
        assert q[[2, 5]] == pytest.approx([2.0, 1.0], rel=1e-12)

    def test_single_point(self):
        q = pr.quotients(sv.QMap(), [0.3], [])
        assert q.shape == (1,) and np.isnan(q[0])

    def test_circle_metric(self):
        # 0.9 -> 0.1 is 0.2 apart across the seam, not 0.8
        q = pr.quotients(sv.RotSegMap(), [0.1, 0.9, 0.1], [0.4, 0.4])
        assert q[1:] == pytest.approx([2.0, 2.0], rel=1e-12)


class TestCentroidCurve:
    def test_matches_closed_form_componentwise(self):
        """Centroid of the trapezoid: ((3-sqrt(x))/(6-3 x^(1/4)),
        x(3-2 x^(1/4))/(6-3 x^(1/4))), derived by direct integration of y1 and
        y2 over the region."""
        y1 = bl.Polynomial.coordinate(0, 2)
        y2 = bl.Polynomial.coordinate(1, 2)
        tm = sv.TrapezoidMap()
        for x in (1.0, 0.9**4, 0.7**4):
            P = sv.eval_map(tm, x)
            a = x**0.25
            c_ref = np.array([
                (3.0 - math.sqrt(x)) / (6.0 - 3.0 * a),
                x * (3.0 - 2.0 * a) / (6.0 - 3.0 * a),
            ])
            got = np.array([bl.expect_neutral(P, y1), bl.expect_neutral(P, y2)])
            assert got == pytest.approx(c_ref, abs=1e-9)


class TestCalmness:
    def test_smooth_function_vanishes(self):
        est = pr.calmness_estimate(lambda x: x * x, 0.0, [1e-1, 1e-2, 1e-3])
        assert est.sup_ratios[0] > est.sup_ratios[-1]
        assert est.extrapolate < 1e-2

    def test_wedge_dichotomy(self):
        diverging = pr.calmness_estimate(sv.QMap(q=1.5), 0.0, [1e-2, 1e-4, 1e-6])
        assert diverging.extrapolate > 1e2
        assert (np.diff(diverging.sup_ratios) > 0).all()
        bounded = pr.calmness_estimate(sv.QMap(q=2.0), 0.0, [1e-2, 1e-4, 1e-6])
        assert bounded.extrapolate <= 1.0 / 12.0 + 0.01

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError):
            pr.calmness_estimate(lambda x: x, 0.0, [1e-3, 1e-2])


def all_pairs_hausdorff_lip(spec, grid):
    """The largest Hausdorff difference quotient over every pair of grid
    points, one distance per pair."""
    imgs = [sv.eval_map(spec, x) for x in grid]
    best = 0.0
    for i, j in itertools.combinations(range(len(grid)), 2):
        d = spec.distance(grid[i], grid[j])
        if d > 0:
            best = max(best, gk.hausdorff(imgs[i], imgs[j]) / d)
    return best


class TestHausdorffLip:
    @pytest.mark.parametrize(
        "spec, grid",
        [
            (sv.TrapezoidMap(), pr.make_grid(0, 1, 200)),
            (sv.QMap(q=2.0), pr.make_grid(0, 1, 200)),
            (sv.RotSegMap(), np.linspace(0, 1, 50, endpoint=False)),
            (sv.BilevelSolutionMap(spec=sv.toy_bilevel_spec()), pr.make_grid(0, 1, 15)),
            (sv.QMap(q=1.5), np.random.default_rng(0).random(40)),
            (sv.QMap(q=2.0), [1.0, 0.0, 0.9, 0.5]),  # the steepest pair, 0.9 and 1, is not listed adjacent
        ],
        ids=["trapezoid", "qmap", "rotseg", "toy-bilevel", "qmap-unsorted", "qmap-shuffled"],
    )
    def test_adjacent_pairs_give_the_all_pairs_maximum(self, spec, grid):
        assert pr.hausdorff_lip(spec, grid) == pytest.approx(all_pairs_hausdorff_lip(spec, grid), rel=1e-12)

    def test_circle_pairs_across_the_seam(self):
        # 0.95 and 0.05 are 0.1 apart on the circle, and their quotient,
        # 2 sin(0.1 pi) / 0.1, beats the 2 sin(0.45 pi) / 0.45 of the others
        spec, grid = sv.RotSegMap(), [0.05, 0.5, 0.95]
        est = pr.hausdorff_lip(spec, grid)
        assert est == pytest.approx(all_pairs_hausdorff_lip(spec, grid), rel=1e-12)
        assert est == pytest.approx(20.0 * math.sin(0.1 * math.pi), rel=1e-9)

    def test_vector_parameters_are_refused(self):
        with pytest.raises(ValueError, match="scalar parameter grid"):
            pr.hausdorff_lip(sv.QMap(), [(0.1, 0.2), (0.3, 0.4)])

    def test_trapezoid(self):
        assert pr.hausdorff_lip(sv.TrapezoidMap(), pr.make_grid(0, 1, 60)) <= 1 + 1e-6

    def test_wedge(self):
        q = 2.0
        est = pr.hausdorff_lip(sv.QMap(q=q), pr.make_grid(0, 1, 60))
        assert est <= q + 1e-6
        assert est > q - 0.1  # the bound is essentially attained near x = 1

    def test_toy_bilevel_exact(self):
        bm = sv.BilevelSolutionMap(spec=sv.toy_bilevel_spec())
        est = pr.hausdorff_lip(bm, pr.make_grid(0, 1, 15))
        assert est == pytest.approx(1.0, abs=1e-9)

    def test_rotating_segment_circle_metric(self):
        est = pr.hausdorff_lip(sv.RotSegMap(), np.linspace(0, 1, 50, endpoint=False))
        assert est <= 2 * math.pi + 1e-6


class TestVerifyTvBound:
    def test_eps_toy_passes(self):
        em = sv.EpsArgminMap(spec=sv.toy_bilevel_spec(), eps=0.1)
        rep = pr.verify_tv_bound(em, pr.make_grid(0.0, 0.9, 20), y_box=(np.zeros(2), np.ones(2)))
        assert rep.passed
        assert rep.checks[0].margin >= 0

    def test_full_dimensional_interp_passes(self, rng):
        A = gk.from_vrep(rng.random((6, 2)))
        B = gk.from_vrep(rng.random((6, 2)) + 0.2)
        mp = sv.InterpMap(body_a=A, body_b=B)
        rep = pr.verify_tv_bound(mp, pr.make_grid(0.0, 1.0, 15))
        assert rep.passed

    def test_constant_map_zero_sides(self):
        A = gk.from_vrep([(0, 0), (1, 0), (0, 1), (1, 1)])
        mp = sv.InterpMap(body_a=A, body_b=A)
        rep = pr.verify_tv_bound(mp, pr.make_grid(0.0, 1.0, 5))
        assert rep.passed
        lhs = rep.metadata["lhs"]
        assert np.nanmax(np.abs(lhs)) == pytest.approx(0.0, abs=1e-9)

    def test_dimension_violation(self):
        with pytest.raises(DimensionViolation):
            pr.verify_tv_bound(sv.TrapezoidMap(), pr.make_grid(0.0, 1.0, 5))


class TestVerifyBodyLemmas:
    def test_default_run_passes(self):
        rep = pr.verify_body_lemmas(samples=120, seed=7)
        assert rep.passed
        assert {c.name for c in rep.checks} == {
            "hausdorff_symmetry",
            "hausdorff_triangle",
            "geodesic_interpolation",
            "diameter_2_lipschitz",
            "volume_lipschitz",
            "jung_radius",
            "steiner_translation_equivariance",
            "steiner_m_lipschitz",
        }

    def test_three_dim_near_flat_seed_passes(self):
        # a tetrahedron of volume 1.8e-5 whose Steiner point lies about 1e-9
        # inside a facet; the m = 3 Steiner checks run at 1e-9
        assert pr.verify_body_lemmas(samples=4, seed=532512900, m=3).passed

    def test_fixed_seed_reproduces_margins(self):
        a = pr.verify_body_lemmas(samples=40, seed=123)
        b = pr.verify_body_lemmas(samples=40, seed=123)
        assert [c.margin for c in a.checks] == [c.margin for c in b.checks]

    def test_json_serializable(self):
        rep = pr.verify_body_lemmas(samples=10, seed=1)
        assert '"suite": "body"' in rep.to_json()

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, samples):
        """With one sample the triangle check never runs, with none no check does."""
        with pytest.raises(ValueError):
            pr.verify_body_lemmas(samples=samples)


class TestVerifySandwich:
    def test_wedge_bounded_regime(self):
        rep = pr.verify_sandwich_and_h(sv.QMap(q=3.0), 0.0, pr.make_grid(0.0, 1.0, 15))
        assert rep.passed
        # h' is bounded for q >= 2, so difference quotients stay modest
        assert rep.metadata["max_h_quotient"] <= 2.0 + 1e-9

    def test_wedge_diverging_regime(self):
        fine = pr.verify_sandwich_and_h(sv.QMap(q=1.5), 0.0, pr.make_grid(0.0, 1e-4, 12))
        coarse = pr.verify_sandwich_and_h(sv.QMap(q=1.5), 0.0, pr.make_grid(0.0, 1.0, 12))
        assert fine.metadata["max_h_quotient"] > 10 * coarse.metadata["max_h_quotient"]

    def test_anchor_evaluation_trivial(self):
        rep = pr.verify_sandwich_and_h(sv.QMap(q=2.0), 0.0, [0.0])
        assert rep.passed
        assert rep.metadata["h"][0] == 1.0

    def test_bilevel_generic_path(self):
        bm = sv.BilevelSolutionMap(spec=sv.toy_bilevel_spec())
        rep = pr.verify_sandwich_and_h(bm, 0.2, pr.make_grid(0.0, 0.9, 10))
        assert rep.passed
        h = rep.metadata["h"]
        assert np.nanmax(np.abs(h - 1.0)) <= 1e-9  # constant dimension: ratio 1


class TestVerifyW1:
    def test_toy_bilevel_half_ratio(self):
        bm = sv.BilevelSolutionMap(spec=sv.toy_bilevel_spec())
        rep = pr.verify_w1_regime(bm, pr.make_grid(0.0, 0.9, 25))
        assert rep.passed
        assert rep.metadata["max_ratio"] == pytest.approx(0.5, abs=1e-9)

    def test_dimension_drift_rejected(self):
        bm = sv.BilevelSolutionMap(spec=sv.toy_bilevel_spec())
        with pytest.raises(DimensionViolation):
            pr.verify_w1_regime(bm, [0.5, 1.0])
