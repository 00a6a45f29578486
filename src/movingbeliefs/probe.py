"""Sweeps, Lipschitz/calmness estimation, and bound-verification suites.

Everything here evaluates the expected-value function phi(x) = E[theta(x, .)]
under a belief on the moving support, estimates difference-quotient behavior
on grids, and checks the package's geometric and measure-theoretic bounds
numerically.  Every Lipschitz estimate is the largest adjacent difference
quotient (``quotients``) of a sorted scalar grid, which is exactly the
all-pairs maximum: d(S_i, S_j) <= sum_k d(S_k, S_k+1) <= r |x_j - x_i| by
the triangle inequality, r the largest adjacent quotient (on a circle,
adjacency is cyclic and the sum runs along the shorter arc).  Calmness
extrapolation deliberately takes the smallest-radius supremum without
extrapolation, since the target quantity is a limsup and anything fancier
would overclaim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import beliefs as bl
from . import geomkernel as gk
from . import svmaps as sv
from .beliefs import Belief, Integrand, MeasurePair, NEUTRAL, Polynomial
from .errors import DimensionViolation, DomainViolation, ZeroDenominator
from .geomkernel import DEFAULT_TOL, Polytope, Tolerances


def make_grid(start: float, stop: float, count: int, log: bool = False) -> np.ndarray:
    if count < 1:
        raise ValueError("grid needs at least one point")
    if log:
        if start <= 0 or stop <= 0:
            raise ValueError("log grids need positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def default_theta(dim: int = 2) -> Polynomial:
    """First-coordinate cost, the workhorse test integrand."""
    return Polynomial.coordinate(0, dim)


ThetaLike = Union[Integrand, Callable]


def _theta_at(theta: ThetaLike, x) -> Integrand:
    if isinstance(theta, (Polynomial, bl.Opaque)):
        return theta
    return theta(x)


def phi_function(
    spec: sv.MapSpec,
    belief: Belief = NEUTRAL,
    theta: Optional[ThetaLike] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Callable[[float], float]:
    """The expected-value function x -> E_{belief on S(x)}[theta(x, .)]."""

    def phi(x) -> float:
        img = sv.eval_map(spec, x, tol)
        th = _theta_at(theta, x) if theta is not None else default_theta(img.ambient_dim)
        return bl.expect(img, belief, th, tol)

    return phi


# ---------------------------------------------------------------------------
# reports

COLUMNS = ("x", "phi", "fd", "ratio", "bound_lhs", "bound_rhs", "margin")


def table_rows(x, phi=None, fd=None, ratio=None, bound_lhs=None, bound_rhs=None) -> list:
    """CSV/JSON rows, dicts of floats in the fixed order ``COLUMNS``, one
    per entry of ``x``, from column arrays of its length: an absent column
    is NaN, and margin is bound_rhs - bound_lhs."""
    cols = [np.full(len(x), np.nan) if c is None else np.asarray(c, dtype=float)
            for c in (x, phi, fd, ratio, bound_lhs, bound_rhs)]
    cols.append(cols[5] - cols[4])
    return [dict(zip(COLUMNS, row)) for row in zip(*(c.tolist() for c in cols))]


@dataclass(eq=False)
class SweepReport:
    """Grid sweep of phi with finite differences and ratio statistics."""

    grid: np.ndarray
    phi: np.ndarray
    fd: np.ndarray  # central differences; NaN at the ends
    ratio: np.ndarray  # adjacent difference quotients, see ``quotients``
    max_ratio: float
    notes: list = field(default_factory=list)

    def rows(self):
        """The sweep as output rows, see ``table_rows``."""
        return table_rows(self.grid, self.phi, self.fd, self.ratio)


@dataclass(eq=False)
class CalmnessEstimate:
    """Per-radius suprema of difference quotients at an anchor; the
    extrapolation is the smallest-radius supremum."""

    anchor: float
    radii: np.ndarray
    sup_ratios: np.ndarray
    extrapolate: float


@dataclass(eq=False)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(eq=False)
class VerificationReport:
    suite: str
    passed: bool
    checks: list
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "margin": c.margin, "detail": c.detail}
                for c in self.checks
            ],
            "metadata": self.metadata,
        }
        return _dumps(payload, sort_keys=True)


def _dumps(payload, **kwargs) -> str:
    """Standard JSON text: no NaN or Infinity, see ``_jsonable``."""
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False, **kwargs)


def _jsonable(obj):
    """Plain JSON values; a non-finite float, which JSON cannot hold, is null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# sweeps and calmness


def quotients(spec: sv.MapSpec, grid: Sequence, gaps: Sequence) -> np.ndarray:
    """Difference quotients of adjacent grid points, one per grid point:
    entry i is gaps[i-1] / spec.distance(grid[i-1], grid[i]), where gaps[i-1]
    is the distance between the values at grid points i-1 and i.  It is NaN
    at the first point, where two adjacent parameters coincide, and where
    the gap is NaN."""
    d = np.array([spec.distance(a, b) for a, b in zip(grid[:-1], grid[1:])], dtype=float)
    out = np.full(len(grid), np.nan)
    np.divide(gaps, d, out=out[1:], where=d > 0)
    return out


def _max_quotient(q: np.ndarray) -> float:
    """The largest quotient that is not NaN; 0 when there is none."""
    return float(np.fmax.reduce(q, initial=0.0))


def sweep_phi(
    spec: sv.MapSpec,
    belief: Belief = NEUTRAL,
    theta: Optional[ThetaLike] = None,
    grid: Sequence = None,
    tol: Tolerances = DEFAULT_TOL,
) -> SweepReport:
    """Evaluate phi on the grid with central finite differences and adjacent
    difference quotients; the max adjacent quotient is the Lipschitz
    estimate, equal to the all-pairs maximum on a sorted grid."""
    grid = np.asarray(list(grid), dtype=float)
    phi = phi_function(spec, belief, theta, tol)
    vals = np.array([phi(x) for x in grid])
    n = len(grid)
    fd = np.full(n, np.nan)
    for i in range(1, n - 1):
        h = grid[i + 1] - grid[i - 1]
        fd[i] = (vals[i + 1] - vals[i - 1]) / h if h != 0 else np.nan
    ratio = quotients(spec, grid, np.abs(np.diff(vals)))
    return SweepReport(grid=grid, phi=vals, fd=fd, ratio=ratio, max_ratio=_max_quotient(ratio))


_CALMNESS_FRACTIONS = (1.0, 0.5, 0.25, 0.125, 0.0625)


def calmness_estimate(
    target: Union[Callable, sv.MapSpec],
    anchor: float,
    radii: Sequence[float],
    belief: Belief = NEUTRAL,
    theta: Optional[ThetaLike] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CalmnessEstimate:
    """Difference-quotient suprema over shrinking balls around the anchor.

    ``target`` is a scalar function of the parameter or a map spec (then the
    expected value of ``theta`` under ``belief`` is probed).  Probe points are
    the anchor offset by r, r/2, r/4, r/8 and r/16 on both sides, clipped to
    the map domain when one is known.
    """
    radii = np.asarray(list(radii), dtype=float)
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")
    if callable(target):
        f = target
        in_domain = lambda x: True  # noqa: E731
        dist = lambda a, b: abs(a - b)  # noqa: E731
    else:
        f = phi_function(target, belief, theta, tol)
        in_domain = target.in_domain
        dist = target.distance
    f_anchor = f(anchor)
    sups = np.zeros(len(radii))
    for i, r in enumerate(radii):
        best = 0.0
        for frac in _CALMNESS_FRACTIONS:
            for sign in (+1.0, -1.0):
                x = anchor + sign * frac * r
                if x == anchor or not in_domain(x):
                    continue
                d = dist(anchor, x)
                if d == 0:
                    continue
                best = max(best, abs(f(x) - f_anchor) / d)
        sups[i] = best
    return CalmnessEstimate(anchor=float(anchor), radii=radii, sup_ratios=sups, extrapolate=float(sups[-1]))


def hausdorff_lip(spec: sv.MapSpec, grid: Sequence, tol: Tolerances = DEFAULT_TOL) -> float:
    """Largest Hausdorff difference quotient of the map over all pairs of
    points of a scalar grid, in any order: the largest adjacent quotient of
    the sorted grid, cyclically adjacent for circle-parameterized maps (see
    the module docstring), so n - 1 or n Hausdorff distances.  A grid of
    vector parameters has no such order and is a ``ValueError``."""
    grid = np.asarray(list(grid), dtype=float)
    if grid.ndim != 1:
        raise ValueError("Hausdorff Lipschitz estimate needs a scalar parameter grid")
    if len(grid) < 2:
        raise ValueError("need at least two grid points")
    grid = np.sort(grid)
    imgs = [sv.eval_map(spec, x, tol) for x in grid]
    if spec.circle:
        grid = np.append(grid, grid[0])
        imgs.append(imgs[0])
    gaps = [gk.hausdorff(P, Q) for P, Q in zip(imgs[:-1], imgs[1:])]
    return _max_quotient(quotients(spec, grid, gaps))


# ---------------------------------------------------------------------------
# verification suites


def verify_tv_bound(
    spec: sv.MapSpec,
    grid: Sequence,
    tol: Tolerances = DEFAULT_TOL,
    y_box: Optional[tuple] = None,
) -> VerificationReport:
    """Check the total-variation bound for full-dimensional images: between
    adjacent grid points, d_TV <= (2 L / vol(S(x))) d_H(S(x), S(x')) with L
    the volume Lipschitz constant of the enclosing box: ``y_box``, which
    must have the images' dimension and hold every image (else
    ``DomainViolation``, up to ``feas_tol``), or the images' bounding box."""
    grid = np.asarray(list(grid), dtype=float)
    imgs = [sv.eval_map(spec, x, tol) for x in grid]
    m = imgs[0].ambient_dim
    dims = [p.intrinsic_dim for p in imgs]
    if any(d != m for d in dims):
        raise DimensionViolation(
            f"total-variation bound needs full-dimensional images; dims={dims}"
        )
    if y_box is None:
        lo = np.min([p.vrep.min(axis=0) for p in imgs], axis=0)
        hi = np.max([p.vrep.max(axis=0) for p in imgs], axis=0)
    else:
        lo, hi = (np.asarray(v, dtype=float) for v in y_box)
        if lo.shape != (m,) or hi.shape != (m,):
            raise DomainViolation(f"y_box corners need {m} coordinates")
        V = np.vstack([p.vrep for p in imgs])
        out = float(np.max([lo - V, V - hi]))
        if out > tol.feas_tol:
            raise DomainViolation(f"an image vertex lies {out:.6g} outside y_box")
    diam = float(np.linalg.norm(hi - lo))
    L = gk.volume_lipschitz_constant(diam, m)

    n = len(grid)
    lhs = np.full(n, np.nan)
    rhs = np.full(n, np.nan)
    checks = []
    worst = math.inf
    for i in range(1, n):
        P, Q = imgs[i - 1], imgs[i]
        tv = bl.tv_distance(MeasurePair.make(P, Q, tol), tol)
        bound = 2.0 * L / gk.volume(P) * gk.hausdorff(P, Q)
        lhs[i] = tv
        rhs[i] = bound
        worst = min(worst, bound - tv)
    ok = worst >= -1e-6
    checks.append(
        CheckResult(
            name="tv_bound_adjacent_pairs",
            passed=ok,
            margin=float(worst),
            detail=f"L={L:.6f}, diam(Y)={diam:.6f}, {n-1} pairs",
        )
    )
    report = VerificationReport(
        suite="tv-bound",
        passed=ok,
        checks=checks,
        metadata={"grid": grid, "lhs": lhs, "rhs": rhs, "L": L, "diam": diam, "dims": dims},
    )
    return report


def random_polytope(
    rng: np.random.Generator,
    m: int = 2,
    n_points: tuple = (3, 9),
    sliver: bool = False,
) -> Polytope:
    """Random full-dimensional polytope inside the unit box; slivers squash
    one axis to produce near-degenerate bodies."""
    n = int(rng.integers(n_points[0], n_points[1]))
    pts = rng.random((max(n, m + 1), m))
    if sliver:
        axis = int(rng.integers(0, m))
        center = pts[:, axis].mean()
        pts[:, axis] = center + (pts[:, axis] - center) * 1e-3
    return gk.from_vrep(pts)


def verify_body_lemmas(
    samples: int = 500,
    seed: Optional[int] = None,
    m: int = 2,
    tol: Tolerances = DEFAULT_TOL,
) -> VerificationReport:
    """Randomized property suite for the convex-body maps: Hausdorff metric
    axioms, Minkowski-interpolation geodesics, 2-Lipschitz diameter,
    volume Lipschitz bound, the enclosing-ball radius bound, and the
    mean-width centroid's m-Lipschitz selection properties."""
    if samples < 2:
        raise ValueError("the body suite needs at least 2 samples (its triangle check pairs two trials)")
    if seed is None:
        seed = tol.rng_seed
    rng = np.random.default_rng(seed)
    L = gk.volume_lipschitz_constant(math.sqrt(m), m)
    worst = {
        "hausdorff_symmetry": math.inf,
        "hausdorff_triangle": math.inf,
        "geodesic_interpolation": math.inf,
        "diameter_2_lipschitz": math.inf,
        "volume_lipschitz": math.inf,
        "jung_radius": math.inf,
        "steiner_translation_equivariance": math.inf,
        "steiner_m_lipschitz": math.inf,
    }
    prev = None
    for trial in range(samples):
        sliver = trial % 20 == 19
        A = random_polytope(rng, m, sliver=sliver)
        B = random_polytope(rng, m, sliver=sliver)
        d_ab = gk.hausdorff(A, B)
        d_ba = gk.hausdorff(B, A)
        worst["hausdorff_symmetry"] = min(worst["hausdorff_symmetry"], 1e-9 - abs(d_ab - d_ba))
        if prev is not None:
            d_ac = gk.hausdorff(A, prev)
            d_cb = gk.hausdorff(prev, B)
            worst["hausdorff_triangle"] = min(worst["hausdorff_triangle"], d_ac + d_cb - d_ab + 1e-9)
        prev = A

        t, s = sorted(rng.random(2))
        gt = gk.minkowski_interpolate(A, B, t, tol)
        gs = gk.minkowski_interpolate(A, B, s, tol)
        worst["geodesic_interpolation"] = min(
            worst["geodesic_interpolation"], (s - t) * d_ab + 1e-9 - gk.hausdorff(gt, gs)
        )

        worst["diameter_2_lipschitz"] = min(
            worst["diameter_2_lipschitz"], 2.0 * d_ab + 1e-9 - abs(gk.diameter(A) - gk.diameter(B))
        )

        if A.intrinsic_dim == m and B.intrinsic_dim == m:
            sym = gk.sym_diff_volume(A, B, tol)
            worst["volume_lipschitz"] = min(
                worst["volume_lipschitz"],
                min(sym - abs(gk.volume(A) - gk.volume(B)) + 1e-12, L * d_ab + 1e-7 - sym),
            )

        _, radius = gk.enclosing_ball(A, tol)
        worst["jung_radius"] = min(
            worst["jung_radius"],
            gk.diameter(A) * math.sqrt(m / (2.0 * (m + 1.0))) + 1e-9 - radius,
        )

        sA = gk.steiner_point(A, tol)  # raises if outside the relative interior
        sB = gk.steiner_point(B, tol)
        shift = rng.standard_normal(m)
        quad_tol = 1e-9 if m <= 3 else 0.05  # external angles are exact up to 3-D
        eq_err = float(np.linalg.norm(gk.steiner_point(gk.translate(A, shift), tol) - sA - shift))
        worst["steiner_translation_equivariance"] = min(
            worst["steiner_translation_equivariance"], quad_tol - eq_err
        )
        worst["steiner_m_lipschitz"] = min(
            worst["steiner_m_lipschitz"], m * d_ab + quad_tol - float(np.linalg.norm(sA - sB))
        )

    checks = [CheckResult(name=k, passed=v >= 0.0, margin=float(v)) for k, v in worst.items()]
    return VerificationReport(
        suite="body",
        passed=all(c.passed for c in checks),
        checks=checks,
        metadata={"samples": samples, "seed": seed, "ambient_dim": m},
    )


def verify_sandwich_and_h(
    spec: sv.MapSpec,
    x_anchor,
    grid: Sequence,
    tol: Tolerances = DEFAULT_TOL,
) -> VerificationReport:
    """Check the inner/outer rectangular sandwich along the grid and track the
    volume-ratio function h and its difference quotients.

    For the power wedge anchored at 0 the hand decomposition is used and h is
    compared exactly against 1 / (1 + x^(q-1))."""
    grid = list(grid)
    is_qmap_at_zero = isinstance(spec, sv.QMap) and sv._as_param(x_anchor)[0] == 0.0
    h_vals = []
    sandwich_ok = True
    worst_gap = 0.0
    closed_form_err = 0.0
    notes = []
    for x in grid:
        if is_qmap_at_zero:
            dec = sv.qmap_reference_decomposition(spec, x, tol)
        else:
            dec = sv.rect_decompose(spec, x_anchor, x, tol)
        sandwich_ok = sandwich_ok and dec.sandwich_ok
        worst_gap = max(worst_gap, dec.sandwich_gap)
        try:
            h = sv.h_ratio(dec)
        except ZeroDenominator:
            h = math.nan
            notes.append(f"inner part degenerate at x={x}")
        h_vals.append(h)
        if is_qmap_at_zero:
            (v,) = sv._as_param(x)
            if v > 0:
                ref = 1.0 / (1.0 + v ** (spec.q - 1.0))
                closed_form_err = max(closed_form_err, abs(h - ref))
    h_vals = np.array(h_vals)
    dq = quotients(spec, grid, np.abs(np.diff(h_vals)))

    checks = [
        CheckResult(name="sandwich_inclusions", passed=sandwich_ok, margin=float(1e-7 - worst_gap)),
    ]
    if is_qmap_at_zero:
        checks.append(
            CheckResult(
                name="h_closed_form",
                passed=closed_form_err <= 1e-9,
                margin=float(1e-9 - closed_form_err),
                detail="h compared against 1/(1+x^(q-1))",
            )
        )
    return VerificationReport(
        suite="sandwich",
        passed=all(c.passed for c in checks),
        checks=checks,
        metadata={
            "grid": np.asarray(grid, dtype=float),
            "h": h_vals,
            "h_quotients": dq,
            "max_h_quotient": _max_quotient(dq),
            "notes": notes,
        },
    )


def verify_w1_regime(
    spec: sv.MapSpec,
    grid: Sequence,
    tol: Tolerances = DEFAULT_TOL,
    resolution: Optional[float] = None,
) -> VerificationReport:
    """Empirical Wasserstein-1 Lipschitz probe for constant-dimension maps:
    adjacent W1 difference quotients of the uniform laws, see ``quotients``,
    with a two-scale divergence check (the fine-grid maximum must not blow
    past the coarse one, taken on every other grid point)."""
    grid = list(grid)
    imgs = [sv.eval_map(spec, x, tol) for x in grid]
    dims = [p.intrinsic_dim for p in imgs]
    if len(set(dims)) != 1:
        raise DimensionViolation(f"W1 probe needs constant image dimension; dims={dims}")

    def ratios(step):
        """Largest quotients of W1 and of its error bound on every step-th point."""
        pts, laws = grid[::step], imgs[::step]
        w1 = np.array([bl.w1_distance(MeasurePair.make(P, Q, tol), resolution, tol)
                       for P, Q in zip(laws[:-1], laws[1:])]).reshape(-1, 2)
        return _max_quotient(quotients(spec, pts, w1[:, 0])), _max_quotient(quotients(spec, pts, w1[:, 1]))

    fine_max, err_max = ratios(1)
    coarse_max, _ = ratios(2)
    ok = fine_max <= coarse_max * 1.5 + 0.1 + err_max
    checks = [
        CheckResult(
            name="w1_ratio_two_scale",
            passed=ok,
            margin=float(coarse_max * 1.5 + 0.1 + err_max - fine_max),
            detail=f"fine={fine_max:.6f}, coarse={coarse_max:.6f}, err={err_max:.2e}",
        )
    ]
    return VerificationReport(
        suite="w1",
        passed=ok,
        checks=checks,
        metadata={
            "grid": np.asarray(grid, dtype=float),
            "max_ratio": fine_max,
            "max_error_ratio": err_max,
            "dims": dims,
        },
    )
