"""Parametric maps: images, solution faces, decompositions, selections."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import movingbeliefs.geomkernel as gk
import movingbeliefs.svmaps as sv
from movingbeliefs.errors import (
    DimensionDrift,
    DomainViolation,
    ParameterInfeasible,
    Unbounded,
    ZeroDenominator,
)


@pytest.fixture(scope="module")
def toy():
    return sv.toy_bilevel_spec()


@pytest.fixture(scope="module")
def toy_map(toy):
    return sv.BilevelSolutionMap(spec=toy)


class TestEvalMap:
    def test_trapezoid_top_vertices_merge(self):
        P = sv.eval_map(sv.TrapezoidMap(), 1.0)
        assert P.n_vertices == 3
        assert P.intrinsic_dim == 2

    def test_wedge_collapses_at_zero(self):
        P = sv.eval_map(sv.QMap(q=2.0), 0.0)
        assert P.intrinsic_dim == 1
        assert sorted(P.vrep[:, 0].tolist()) == pytest.approx([0.0, 1.0])

    def test_rotating_segment_at_zero(self):
        P = sv.eval_map(sv.RotSegMap(), 0.0)
        assert P.vrep == pytest.approx(np.array([[-2.0, 0.0], [2.0, 0.0]]))

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            sv.eval_map(sv.TrapezoidMap(), 1.5)
        with pytest.raises(DomainViolation):
            sv.eval_map(sv.RotSegMap(), 1.0)  # circle domain is [0, 1)

    def test_interp_endpoints(self):
        A = gk.from_vrep([(0, 0), (1, 0), (0, 1)])
        B = gk.from_vrep([(2, 2), (3, 2), (2, 3)])
        mp = sv.InterpMap(body_a=A, body_b=B)
        assert gk.hausdorff(sv.eval_map(mp, 0.0), A) <= 1e-12
        assert gk.hausdorff(sv.eval_map(mp, 1.0), B) <= 1e-12

    def test_circle_metric(self):
        rs = sv.RotSegMap()
        assert rs.distance(0.05, 0.95) == pytest.approx(0.1)
        assert sv.TrapezoidMap().distance(0.05, 0.95) == pytest.approx(0.9)


class TestBilevelSolution:
    def test_bottom_edge_clipped(self, toy):
        # minimizing y2 over the clipped square picks the bottom edge [x, 1] x {0}
        for x in (0.0, 0.3, 0.7):
            S = sv.bilevel_solution(toy, x)
            assert S.intrinsic_dim == 1
            assert S.vrep == pytest.approx(np.array([[x, 0.0], [1.0, 0.0]]))

    def test_degenerate_face_at_one(self, toy):
        S = sv.bilevel_solution(toy, 1.0)
        assert S.intrinsic_dim == 0
        assert S.vrep[0] == pytest.approx([1.0, 0.0])

    def test_zero_cost_returns_fiber(self, toy):
        spec0 = sv.BilevelLinearSpec(
            a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs, cost=np.zeros(2)
        )
        S = sv.bilevel_solution(spec0, 0.3)
        assert S.intrinsic_dim == 2
        assert gk.volume(S) == pytest.approx(0.7)

    def test_parameter_infeasible(self, toy):
        with pytest.raises(ParameterInfeasible):
            sv.bilevel_solution(toy, 2.0)

    def test_exact_mode_hausdorff_identity(self, toy):
        xs = np.linspace(0.0, 1.0, 9)
        polys = [sv.bilevel_solution(toy, x) for x in xs]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                assert gk.hausdorff(polys[i], polys[j]) == pytest.approx(
                    abs(xs[i] - xs[j]), abs=1e-9
                )

    def test_exact_face_solves_the_rational_lp(self):
        # y <= 3x, y >= 0, 0 <= x <= 1, cost -y: at x = 0.1 the face is
        # {3x}, but b - A x rounded to floats misses it by an ulp
        spec = sv.BilevelLinearSpec(
            a_matrix=np.array([[-3.0], [0.0], [1.0], [-1.0]]),
            b_matrix=np.array([[1.0], [-1.0], [0.0], [0.0]]),
            rhs=np.array([0.0, 0.0, 1.0, 0.0]),
            cost=np.array([-1.0]),
        )
        S = sv.bilevel_solution(spec, 0.1)
        assert S.intrinsic_dim == 0
        assert S.vrep[0] == pytest.approx([0.3], abs=1e-15)

    def test_unbounded_joint_set_rejected(self):
        with pytest.raises(Unbounded):
            sv.BilevelLinearSpec(
                a_matrix=np.array([[0.0]]),
                b_matrix=np.array([[1.0]]),
                rhs=np.array([1.0]),
                cost=np.array([1.0]),
            )


class TestEpsArgmin:
    def test_full_dimensional_slab(self, toy):
        S = sv.eps_argmin(toy, 0.1, 0.0)
        assert S.intrinsic_dim == 2
        assert gk.volume(S) == pytest.approx(0.1)

    def test_large_relaxation_gives_whole_fiber(self, toy):
        S = sv.eps_argmin(toy, 1.5, 0.0)
        assert gk.volume(S) == pytest.approx(1.0)

    def test_edge_fiber_at_one(self, toy):
        S = sv.eps_argmin(toy, 0.1, 1.0)
        assert S.intrinsic_dim == 1
        assert sorted(S.vrep[:, 1].tolist()) == pytest.approx([0.0, 0.1])

    def test_positive_relaxation_required(self, toy):
        with pytest.raises(ValueError):
            sv.eps_argmin(toy, 0.0, 0.5)


def _dyadic(rng, lo, hi, size=None):
    return rng.integers(int(4 * lo), int(4 * hi) + 1, size=size) / 4.0


def _sweep_shape_spec(rng):
    """y in [0,1]^3, w.y >= beta + alpha x, u.y <= delta + gamma x, x in [0, 1],
    with dyadic data and a random dyadic nonzero cost."""
    w = _dyadic(rng, 0.5, 1.0, 3)
    u = rng.integers(-1, 2, 3).astype(float)
    u[0] = u[0] or 1.0
    alpha, beta = _dyadic(rng, 0.25, 0.5), _dyadic(rng, 0.25, 0.5)
    gamma, delta = _dyadic(rng, 0.0, 0.5), _dyadic(rng, 0.5, 1.0)
    c = _dyadic(rng, -1.0, 1.0, 3)
    c[2] = c[2] or 0.5
    eye = np.eye(3)
    return sv.BilevelLinearSpec(
        a_matrix=np.array([[0.0]] * 6 + [[-1.0], [1.0], [alpha], [-gamma]]),
        b_matrix=np.vstack([-eye, eye, np.zeros((2, 3)), -w, u]),
        rhs=np.concatenate([np.zeros(3), np.ones(3), [0.0, 1.0, -beta, delta]]),
        cost=c,
    )


def _cube_spec(a_row, cost):
    """y in [0,1]^3 and ones.y >= a_row * x, x in [0, 1]."""
    return sv.BilevelLinearSpec(
        a_matrix=np.array([[0.0]] * 6 + [[-1.0], [1.0], [a_row]]),
        b_matrix=np.vstack([-np.eye(3), np.eye(3), np.zeros((2, 3)), -np.ones((1, 3))]),
        rhs=np.concatenate([np.zeros(3), np.ones(3), [0.0, 1.0, 0.0]]),
        cost=np.asarray(cost, dtype=float),
    )


def _non_dyadic_spec(rng):
    """y in [0, 1]^3 and x in [-1, 2] cut by three random rows with entries
    such as 0.1 and 1/3, each 0.1 to 0.35 from the centre (1/2, ..., 1/2):
    the extremes of the parameter box and the fibers' vertices are mostly
    not floats."""
    vals = np.array([0.1, -0.1, 1 / 3, -1 / 3, 0.7, -2 / 3, 0.3])
    N = rng.choice(vals, (3, 4))
    off = N @ np.full(4, 0.5) + rng.uniform(0.1, 0.35, 3)
    eye = np.eye(4)
    M = np.vstack([-eye, eye, N])
    rhs = np.concatenate([[1.0, 0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 1.0], off])
    return sv.BilevelLinearSpec(a_matrix=M[:, :1], b_matrix=M[:, 1:], rhs=rhs, cost=rng.choice(vals, 3))


def _whole_fiber(spec):
    """The same constraints with zero cost: the optimal face is the fiber."""
    return sv.BilevelLinearSpec(a_matrix=spec.a_matrix, b_matrix=spec.b_matrix, rhs=spec.rhs,
                                cost=np.zeros(spec.n_vars))


def _two_parameter_spec(rng):
    """``_non_dyadic_spec`` with two parameters: x in [-1, 2]^2 and y in
    [0, 1]^3, cut by three random rows in (x, y).  Each row keeps a slack
    of at least 0.1 at the centre and its x part moves by at most 0.07
    within 0.05 of x = (1/2, 1/2), so the fiber there holds y = (1/2, ...)."""
    vals = np.array([0.1, -0.1, 1 / 3, -1 / 3, 0.7, -2 / 3, 0.3])
    N = rng.choice(vals, (3, 5))
    off = N @ np.full(5, 0.5) + rng.uniform(0.1, 0.35, 3)
    eye = np.eye(5)
    M = np.vstack([-eye, eye, N])
    rhs = np.concatenate([[1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 1.0], off])
    return sv.BilevelLinearSpec(a_matrix=M[:, :2], b_matrix=M[:, 2:], rhs=rhs, cost=rng.choice(vals, 3))


class TestLinearFiber:
    """Optimal faces and eps-sets read exactly off the fiber's vertices,
    against the HiGHS optimum and the Fraction brute force."""

    EPS = 0.25

    @pytest.mark.parametrize("seed", range(6))
    def test_faces_and_eps_sets_match_highs(self, seed):
        from scipy.optimize import linprog

        spec = _sweep_shape_spec(np.random.default_rng([seed, 41]))
        B, c = spec.b_matrix, spec.cost
        for x in [*np.linspace(0.0, 1.0, 5), 1.25]:  # no response beyond x = 1
            r = spec.rhs - spec.a_matrix @ [x]
            opt = linprog(c, A_ub=B, b_ub=r, bounds=[(None, None)] * 3, method="highs")
            if opt.status == 2:
                with pytest.raises(ParameterInfeasible):
                    sv.bilevel_solution(spec, x)
                continue
            assert opt.status == 0
            face = sv.bilevel_solution(spec, x).vrep
            eps_set = sv.eps_argmin(spec, self.EPS, x).vrep
            for V in (face, eps_set):
                assert (V @ B.T - r).max() <= 1e-9
            assert np.abs(face @ c - opt.fun).max() <= 1e-9
            assert (eps_set @ c).max() <= opt.fun + self.EPS + 1e-9

    @staticmethod
    def _check_inward(spec, brute_fractions):
        """x_box is the parameter range of the joint set's brute-force
        vertices (Fraction solves) rounded inward: lo is the least float
        >= the exact minimum, hi the greatest float <= the exact maximum."""
        xs = [y[0] for y in brute_fractions(np.hstack([spec.a_matrix, spec.b_matrix]), spec.rhs)]
        (lo,), (hi,) = spec.x_box
        assert Fraction(lo) >= min(xs) > Fraction(math.nextafter(lo, -math.inf))
        assert Fraction(hi) <= max(xs) < Fraction(math.nextafter(hi, math.inf))

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_boxes_are_the_rounded_exact_extremes(self, seed, brute_fractions):
        rng = np.random.default_rng([seed, 43])
        for _ in range(32):
            self._check_inward(_sweep_shape_spec(rng), brute_fractions)

    def test_fibers_at_the_domain_ends(self, brute_fractions):
        """The parameter box rounded inward: at both of its ends of specs
        whose extremes are not floats, the fiber, the face and the eps-set
        are nonempty, and one ulp beyond either end all three raise
        ``ParameterInfeasible``.  The float nearest an extreme can lie
        outside the joint set's projection, where the fiber is empty."""
        rng = np.random.default_rng(7)
        for _ in range(39):
            spec = _non_dyadic_spec(rng)
            self._check_inward(spec, brute_fractions)
            (lo,), (hi,) = spec.x_box
            whole = _whole_fiber(spec)
            slices = (lambda x: sv._linear_fiber(whole, x, gk.DEFAULT_TOL, 0.0),
                      lambda x: sv.bilevel_solution(spec, x),
                      lambda x: sv.eps_argmin(spec, self.EPS, x))
            for x, beyond in ((lo, -math.inf), (hi, math.inf)):
                for f in slices:
                    f(x)
                    with pytest.raises(ParameterInfeasible):
                        f(math.nextafter(x, beyond))

    @pytest.mark.parametrize("kind", ("sweep", "non-dyadic", "two-parameter"))
    def test_fibers_match_the_fraction_brute_force(self, kind, brute_fractions, brute_vertices):
        """At interior parameters the fiber {y : B y <= b - A x}, the face and
        the eps-set are, bit for bit, the float rounding of the Fraction
        brute force of B y <= b - A x with the cut rows c.y <= v + cut (and
        c.y >= v for the face), v the exact least c.y over the fiber."""
        if kind == "sweep":
            rngs = [np.random.default_rng([seed, 43]) for seed in (1, 2, 3)]
            specs = [_sweep_shape_spec(rng) for rng in rngs for _ in range(3)]
        elif kind == "non-dyadic":
            rng = np.random.default_rng(11)
            specs = [_non_dyadic_spec(rng) for _ in range(4)]
        else:
            rng = np.random.default_rng(13)
            specs = [_two_parameter_spec(rng) for _ in range(4)]
        for spec in specs:
            B, c = spec.b_matrix, spec.cost
            if kind == "two-parameter":
                xs = [(0.5, 0.5), (0.45, 0.55), (0.5 + 1 / 30, 0.46)]
            else:
                (lo,), (hi,) = spec.x_box
                xs = [(x,) for x in lo + (hi - lo) * np.array([0.2, 0.5, 0.9])]
            for x in xs:
                r = [Fraction(b) - sum(Fraction(ai) * Fraction(xi) for ai, xi in zip(a, x))
                     for a, b in zip(spec.a_matrix, spec.rhs)]
                fiber = brute_fractions(B, r)
                v = min(sum(Fraction(ci) * yi for ci, yi in zip(c, y)) for y in fiber)
                assert np.array_equal(sv._linear_fiber(_whole_fiber(spec), x, gk.DEFAULT_TOL, 0.0).vrep,
                                      brute_vertices(B, r))
                assert np.array_equal(sv.bilevel_solution(spec, x).vrep,
                                      brute_vertices(np.vstack([B, c, -c]), [*r, v, -v]))
                assert np.array_equal(sv.eps_argmin(spec, self.EPS, x).vrep,
                                      brute_vertices(np.vstack([B, c]), [*r, v + Fraction(self.EPS)]))

    def test_an_empty_fiber_is_outside_the_domain(self):
        """With two parameters the box ``x_box`` only bounds the domain, the
        x with a nonempty fiber: 4 of the 16 box corners of these specs pass
        ``in_domain`` and have an empty fiber, and every map on them raises a
        ``DomainViolation`` there."""
        rng = np.random.default_rng(13)
        empty = 0
        for spec in [_two_parameter_spec(rng) for _ in range(4)]:
            maps = (sv.BilevelSolutionMap(spec=spec), sv.EpsArgminMap(spec=spec, eps=self.EPS),
                    sv.GenericAffineMap(a_matrix=spec.a_matrix, b_matrix=spec.b_matrix, rhs=spec.rhs))
            for x in itertools.product(*zip(*spec.x_box)):
                assert all(m.in_domain(x) for m in maps)
                try:
                    sv._linear_fiber(spec, x, gk.DEFAULT_TOL, 0.0)
                except ParameterInfeasible:
                    empty += 1
                    for m in maps:
                        with pytest.raises(DomainViolation, match="no feasible response"):
                            sv.eval_map(m, x)
        assert empty == 4

    @staticmethod
    def _rows(spec, reverse):
        """The spec, or the same spec with its rows in reverse order: the
        exact vertex enumeration does not depend on the order of the rows."""
        if not reverse:
            return spec
        return sv.BilevelLinearSpec(
            a_matrix=spec.a_matrix[::-1], b_matrix=spec.b_matrix[::-1], rhs=spec.rhs[::-1], cost=spec.cost
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_cost_parallel_to_a_facet(self, reverse):
        # min ones.y over the cube cut by ones.y >= 3/4: the face is that facet
        spec = self._rows(_cube_spec(1.5, [1.0, 1.0, 1.0]), reverse)
        S = sv.bilevel_solution(spec, 0.5)
        assert S.intrinsic_dim == 2
        assert np.array_equal(S.vrep, np.array([[0, 0, 0.75], [0, 0.75, 0], [0.75, 0, 0]]))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_fiber_is_a_single_point(self, reverse):
        # ones.y >= 3 leaves the corner (1, 1, 1) of the cube alone
        spec = self._rows(_cube_spec(3.0, [0.5, -0.25, 1.0]), reverse)
        for P in (
            sv._linear_fiber(_whole_fiber(spec), 1.0, gk.DEFAULT_TOL, 0.0),
            sv.bilevel_solution(spec, 1.0),
            sv.eps_argmin(spec, self.EPS, 1.0),
        ):
            assert P.intrinsic_dim == 0
            assert P.vrep.tolist() == [[1.0, 1.0, 1.0]]

    def test_one_enumeration_per_spec(self, toy, monkeypatch):
        """The joint set is enumerated once, when the spec is built; every
        fiber, face and eps-set after that is a slice of that enumeration."""
        calls = []
        enumerate_joint = gk._hrep_vertices
        monkeypatch.setattr(gk, "_hrep_vertices", lambda *a: calls.append(a) or enumerate_joint(*a))
        spec = sv.BilevelLinearSpec(a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs, cost=toy.cost)
        generic = sv.GenericAffineMap(a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs)
        assert len(calls) == 2
        for m in (sv.BilevelSolutionMap(spec=spec), sv.EpsArgminMap(spec=spec, eps=self.EPS), generic):
            for x in np.linspace(0.0, 1.0, 5):
                sv.eval_map(m, x)
        assert len(calls) == 2

    def test_parameter_box_is_not_an_argument(self, toy):
        with pytest.raises(TypeError):
            sv.BilevelLinearSpec(a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs, cost=toy.cost,
                                 x_box=(np.zeros(1), np.ones(1)))


class TestGenericAffine:
    def test_matches_bilevel_fiber(self, toy):
        gm = sv.GenericAffineMap(a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs)
        S = gm.evaluate(0.3)
        assert gk.volume(S) == pytest.approx(0.7)
        assert S.vrep[:, 0].min() == pytest.approx(0.3)

    def test_exact_agrees_with_float_and_zero_cost_face(self, toy):
        gm = sv.GenericAffineMap(a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs)
        spec0 = sv.BilevelLinearSpec(
            a_matrix=toy.a_matrix, b_matrix=toy.b_matrix, rhs=toy.rhs, cost=np.zeros(2)
        )
        assert gm.domain == sv.BilevelSolutionMap(spec=spec0).domain
        for x in (0.0, 0.3, 1.0):
            S = gm.evaluate(x)
            assert np.array_equal(S.vrep, sv.bilevel_solution(spec0, x).vrep)
            assert S.intrinsic_dim == (1 if x == 1.0 else 2)


class TestRectDecompose:
    def test_anchor_reproduces_image(self, toy_map):
        d = sv.rect_decompose(toy_map, 0.2, 0.2)
        assert d.at_anchor
        assert d.r.intrinsic_dim == 0
        assert gk.hausdorff(d.t0, d.t1) <= 1e-12
        img = sv.eval_map(toy_map, 0.2)
        shifted = gk.translate(img, -d.shift)
        assert gk.hausdorff(d.t0, shifted) <= 1e-9
        assert sv.h_ratio(d) == 1.0

    def test_toy_bilevel_probe(self, toy_map):
        d = sv.rect_decompose(toy_map, 0.2, 0.6)
        assert d.sandwich_ok
        assert d.t0.intrinsic_dim == 1
        assert d.r.intrinsic_dim == 0
        assert sv.h_ratio(d) == pytest.approx(1.0)

    def test_wedge_reference_matches_stated_parts(self):
        # the stated decomposition: tangential [0,1] x {0}, inner orthogonal
        # {0} x [-x, 0], outer {0} x [-x, x^q]
        qm = sv.QMap(q=2.0)
        d = sv.qmap_reference_decomposition(qm, 0.4)
        assert d.sandwich_ok
        assert d.t0.vrep == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert gk.volume(d.r0) == pytest.approx(0.4)
        assert gk.volume(d.r1) == pytest.approx(0.4 + 0.4**2)

    def test_wedge_generic_construction_degenerates(self):
        # the projection-based construction pinches the inner part to a point
        # for this family; the volume ratio is then flagged, not guessed
        qm = sv.QMap(q=2.0)
        d = sv.rect_decompose(qm, 0.0, 0.3)
        assert d.sandwich_ok
        assert d.t0 is not None and d.t0.intrinsic_dim == 0
        with pytest.raises(ZeroDenominator):
            sv.h_ratio(d)

    def test_sandwich_holds_along_grid(self, toy_map):
        for x in np.linspace(0.0, 1.0, 20):
            d = sv.rect_decompose(toy_map, 0.3, x)
            assert d.sandwich_ok, x

    def test_inner_part_calmness_probe(self, toy_map):
        """Empirical calmness of the inner tangential part at the anchor:
        sup d_H(t0(x), S(x_anchor) - s) / |x - x_anchor| stays bounded as the
        probe radius shrinks (here the images translate, so the ratio is 1)."""
        anchor = 0.3
        base = gk.translate(sv.eval_map(toy_map, anchor), -sv.rect_decompose(toy_map, anchor, anchor).shift)
        for radius in (0.1, 0.01, 0.001):
            for sign in (+1, -1):
                x = anchor + sign * radius
                dec = sv.rect_decompose(toy_map, anchor, x)
                ratio = gk.hausdorff(dec.t0, base) / radius
                assert ratio <= 2.0 + 1e-9

    def test_two_parameter_instance(self):
        # y in [0,1]^2 with y >= x componentwise, minimizing y1 + y2: the
        # optimal face is the singleton {x}; the decomposition around a
        # singleton anchor reduces to pure orthogonal translation
        A = np.array([
            [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0],
            [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0],
            [0.0, 0.0], [0.0, 0.0],
        ])
        B = np.array([
            [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0],
            [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
            [-1.0, 0.0], [0.0, -1.0],
        ])
        b = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        spec2 = sv.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=np.array([1.0, 1.0]))
        S = sv.bilevel_solution(spec2, (0.3, 0.6))
        assert S.intrinsic_dim == 0
        assert S.vrep[0] == pytest.approx([0.3, 0.6])
        E = sv.eps_argmin(spec2, 0.1, (0.3, 0.6))
        assert gk.volume(E) == pytest.approx(0.005)  # right triangle, legs 0.1
        d = sv.rect_decompose(sv.BilevelSolutionMap(spec=spec2), (0.2, 0.2), (0.5, 0.5))
        assert d.sandwich_ok
        assert sv.h_ratio(d) == pytest.approx(1.0)


class TestHRatio:
    def test_wedge_closed_form(self):
        # volumes: |r0| = x, |r1| = x + x^q, |t0| = |t1| = 1, so the ratio is
        # x/(x+x^q) = 1/(1+x^(q-1)); at q=2, x=0.5 this is 2/3
        qm = sv.QMap(q=2.0)
        d = sv.qmap_reference_decomposition(qm, 0.5)
        assert sv.h_ratio(d) == pytest.approx(2.0 / 3.0, abs=1e-12)
        for x in (0.1, 0.33, 0.9):
            dd = sv.qmap_reference_decomposition(qm, x)
            assert sv.h_ratio(dd) == pytest.approx(1.0 / (1.0 + x), abs=1e-12)

    def test_anchor_convention(self):
        d = sv.qmap_reference_decomposition(sv.QMap(q=2.0), 0.0)
        assert sv.h_ratio(d) == 1.0

    def test_image_below_the_anchor_dimension_is_a_dimension_drift(self, toy_map):
        """The toy image is a segment at x = 0 and a point at x = 1: the
        dimension jump is negative, which names both dimensions."""
        d = sv.rect_decompose(toy_map, 0.0, 1.0)
        assert (d.anchor_dim, d.image_dim) == (1, 0)
        with pytest.raises(DimensionDrift, match="image dimension 0 is below the anchor dimension 1"):
            sv.h_ratio(d)

    def test_empty_inner_part_is_flagged(self):
        seg = gk.from_vrep([(0.0, 0.0), (1.0, 0.0)])
        d = sv.RectDecomposition(
            t0=None, t1=seg, r0=None, r1=seg, anchor=(0.0,), shift=np.zeros(2),
            anchor_dim=1, image_dim=1, at_anchor=False, sandwich_margin=0.0,
        )
        with pytest.raises(ZeroDenominator):
            sv.h_ratio(d)


class TestSelections:
    def test_steiner_selection_interp_endpoints(self):
        A = gk.from_vrep([(0, 0), (1, 0), (0, 1)])
        B = gk.from_vrep([(3, 3), (4, 3), (3, 4)])
        mp = sv.InterpMap(body_a=A, body_b=B)
        pts = sv.steiner_selection(mp, [0.0, 1.0])
        assert pts[0] == pytest.approx(gk.steiner_point(A))
        assert pts[1] == pytest.approx(gk.steiner_point(B))

    def test_steiner_selection_symmetric_centers(self):
        em = sv.EpsArgminMap(spec=sv.toy_bilevel_spec(), eps=0.1)
        pts = sv.steiner_selection(em, [0.0, 0.4])
        assert pts[0] == pytest.approx([0.5, 0.05], abs=1e-9)
        assert pts[1] == pytest.approx([0.7, 0.05], abs=1e-9)

    def test_steiner_selection_segment_midpoints(self, toy_map):
        grid = [0.0, 0.25, 0.5, 0.75]
        pts = sv.steiner_selection(toy_map, grid)
        for x, p in zip(grid, pts):
            assert p == pytest.approx([(1.0 + x) / 2.0, 0.0], abs=1e-12)

    def test_steiner_selection_lipschitz_ratio(self, toy_map):
        grid = np.linspace(0.0, 1.0, 21)
        pts = sv.steiner_selection(toy_map, grid)
        lip_map = 1.0  # exact for this family
        for i in range(len(grid) - 1):
            step = np.linalg.norm(pts[i + 1] - pts[i]) / (grid[i + 1] - grid[i])
            assert step <= 2.0 * lip_map * (1 + 1e-3)

    def test_lipschitz_selection_fixes_anchor(self, toy_map):
        res = sv.lipschitz_selection(toy_map, 0.3, np.array([0.3, 0.0]), [0.3])
        assert res.points[0] == pytest.approx([0.3, 0.0], abs=1e-12)

    def test_lipschitz_selection_constant_map(self):
        A = gk.from_vrep([(0, 0), (2, 0), (0, 2)])
        mp = sv.InterpMap(body_a=A, body_b=A)
        res = sv.lipschitz_selection(mp, 0.0, np.array([0.5, 0.5]), np.linspace(0, 1, 5))
        for p in res.points:
            assert p == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_lipschitz_selection_tracks_left_endpoint(self, toy_map):
        grid = np.linspace(0.3, 0.8, 11)
        res = sv.lipschitz_selection(toy_map, 0.3, np.array([0.3, 0.0]), grid)
        # the anchored selection stays in the moving segment and moves with
        # bounded slope <= 5 m Lip(S) (1 + facet slack)
        bound = 5 * 2 * 1.0 * res.slack_factor * (1 + 1e-6)
        for i in range(len(grid) - 1):
            step = np.linalg.norm(res.points[i + 1] - res.points[i]) / (grid[i + 1] - grid[i])
            assert step <= bound
        for x, p in zip(grid, res.points):
            img = sv.eval_map(toy_map, x)
            assert img.contains(p, 1e-7)

    @pytest.mark.parametrize("facets, m", [(64, 3), (16, 3), (32, 4), (64, 2)])
    def test_ball_slack_factor_bounds_every_vertex(self, facets, m):
        """r times the factor is the largest distance of a vertex from the
        center, and the polytope contains the ball."""
        c, r = np.linspace(-0.8, 1.1, m), 0.7
        P = sv.ball_polytope(c, r, facets, m)
        dist = np.linalg.norm(P.vrep - c, axis=1)
        factor = sv.ball_slack_factor(facets, m)
        assert dist.max() <= r * factor * (1 + 1e-12)
        assert dist.max() >= r * factor * (1 - 1e-12)
        assert np.all(P.violation(c + r * gk._sphere_nodes(m, 500, 1)) <= 1e-12)

    def test_anchor_must_lie_in_image(self, toy_map):
        with pytest.raises(ValueError):
            sv.lipschitz_selection(toy_map, 0.3, np.array([0.0, 0.5]), [0.3])


class TestFrames:
    def test_toy_bilevel_constant_frame(self, toy_map):
        res = sv.frame_selection(toy_map, 0.0, np.linspace(0.0, 0.9, 10))
        for B in res.frames:
            assert B[:, 0] == pytest.approx([1.0, 0.0], abs=1e-9)
            assert B.T @ B == pytest.approx(np.eye(2), abs=1e-10)
        assert res.step_ratios.max() <= 1e-9

    def test_rotating_segment_tracks_direction(self):
        grid = np.linspace(0.3, 0.7, 9)
        res = sv.frame_selection(sv.RotSegMap(), 0.3, grid)
        for x, B in zip(grid, res.frames):
            g = np.array([math.cos(math.pi * x), math.sin(math.pi * x)])
            assert min(np.linalg.norm(B[:, 0] - g), np.linalg.norm(B[:, 0] + g)) < 1e-6

    def test_constant_map_constant_frame(self):
        A = gk.from_vrep([(0, 0), (1, 0), (0.5, 1)])
        mp = sv.InterpMap(body_a=A, body_b=A)
        res = sv.frame_selection(mp, 0.0, np.linspace(0, 1, 6))
        assert res.step_ratios.max() == pytest.approx(0.0, abs=1e-12)

    def test_dimension_drift_detected(self, toy_map):
        with pytest.raises(DimensionDrift):
            sv.frame_selection(toy_map, 0.5, [0.5, 1.0])  # image collapses at 1


class TestDimProfile:
    def test_trapezoid(self):
        assert sv.dim_profile(sv.TrapezoidMap(), [0.0, 0.5, 1.0]) == [1, 2, 2]

    def test_toy_bilevel_drop(self, toy_map):
        assert sv.dim_profile(toy_map, [0.5, 1.0]) == [1, 0]

    def test_constant_map(self):
        A = gk.from_vrep([(0, 0), (1, 0), (0, 1)])
        mp = sv.InterpMap(body_a=A, body_b=A)
        assert sv.dim_profile(mp, np.linspace(0, 1, 5)) == [2] * 5


class TestMapLipschitz:
    def test_trapezoid_is_nonexpansive(self):
        # nested images: the Hausdorff gap equals the parameter gap exactly
        tm = sv.TrapezoidMap()
        grid = np.linspace(0.0, 1.0, 30)
        imgs = [sv.eval_map(tm, x) for x in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                d = gk.hausdorff(imgs[i], imgs[j])
                assert d <= abs(grid[i] - grid[j]) + 1e-9

    def test_wedge_lipschitz_bound(self):
        q = 2.0
        qm = sv.QMap(q=q)
        grid = np.linspace(0.0, 1.0, 30)
        imgs = [sv.eval_map(qm, x) for x in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                d = gk.hausdorff(imgs[i], imgs[j])
                assert d <= q * abs(grid[i] - grid[j]) + 1e-9
