"""Parametric polytope-valued maps and constructions on them.

Built-in example families (a shrinking trapezoid, a two-sided power wedge, a
rotating segment on a circle parameter space, Minkowski interpolation),
solution maps of fully linear lower-level problems (exact optimal faces and
epsilon-relaxed versions), rectangular inner/outer decompositions that
separate the constant-dimension tangential part from the dimension-changing
orthogonal part, and Lipschitz selections built from mean-width centroids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import geomkernel as gk
from .errors import (
    DimensionDrift,
    DomainViolation,
    ParameterInfeasible,
    ZeroDenominator,
)
from .geomkernel import DEFAULT_TOL, AffineFrame, Polytope, Tolerances


def _as_param(x) -> tuple:
    if np.isscalar(x):
        return (float(x),)
    return tuple(float(v) for v in np.asarray(x, dtype=float).ravel())


# ---------------------------------------------------------------------------
# linear lower-level problems


@dataclass(frozen=True, eq=False)
class BilevelLinearSpec:
    """Data of a fully linear lower level: argmin_y {c.y : A x + B y <= b}.

    The joint constraint set {(x, y) : A x + B y <= b} is enumerated
    exactly once, at construction, which certifies that it is nonempty and
    bounded.  ``joint`` keeps that enumeration, ``gk._hrep_vertices``' pair
    (H, act), the vertices and their incidence on the joint rows (the base
    rows, then the rest in order): every fiber, optimal face and eps-set is
    an exact slice of it (``_linear_fiber``).  ``x_box`` holds the least and
    greatest parameter coordinates of its vertices rounded inward: lo the
    least float >= the exact minimum, hi the greatest float <= the exact
    maximum.  For a scalar parameter the fiber at every float of the box is
    nonempty; with more parameters the box only bounds the joint set's
    projection.
    """

    a_matrix: np.ndarray  # (p, n)
    b_matrix: np.ndarray  # (p, m)
    rhs: np.ndarray  # (p,)
    cost: np.ndarray  # (m,)
    x_box: tuple = field(init=False, repr=False)
    joint: tuple = field(init=False, repr=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        B = np.atleast_2d(np.asarray(self.b_matrix, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        c = np.asarray(self.cost, dtype=float)
        if A.shape[0] != B.shape[0] or A.shape[0] != b.shape[0] or B.shape[1] != c.shape[0]:
            raise ValueError("inconsistent lower-level dimensions")
        object.__setattr__(self, "a_matrix", A)
        object.__setattr__(self, "b_matrix", B)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "cost", c)
        H, act = gk._hrep_vertices(np.hstack([A, B]), b)
        xs = [[Fraction(h[j], h[-1]) for h in H.tolist()] for j in range(A.shape[1])]
        lo, hi = zip(*(_inward(min(v), max(v)) for v in xs))
        object.__setattr__(self, "x_box", (np.array(lo), np.array(hi)))
        object.__setattr__(self, "joint", (H, act))

    @property
    def n_vars(self) -> int:
        return self.b_matrix.shape[1]


def _inward(lo: Fraction, hi: Fraction) -> tuple:
    """(the least float >= lo, the greatest float <= hi)."""
    a, b = float(lo), float(hi)
    return (a if a >= lo else math.nextafter(a, math.inf)), (b if b <= hi else math.nextafter(b, -math.inf))


def toy_bilevel_spec() -> BilevelLinearSpec:
    """Unit-square fiber with the extra row y1 >= x and lower-level cost y2:
    the optimal face is the bottom edge clipped at y1 >= x."""
    A = np.array([[1.0], [0.0], [0.0], [0.0], [-1.0], [1.0]])
    B = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    b = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    c = np.array([0.0, 1.0])
    return BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=c)


def _linear_fiber(spec: BilevelLinearSpec, x, tol: Tolerances, cut: float) -> Polytope:
    """{y : B y <= b - A x, c.y <= v(x) + cut} for a cut >= 0, v(x) the
    least c.y over the fiber: a slice at x of the spec's exact joint
    enumeration.  A zero cost (``GenericAffineMap``) keeps the whole fiber.

    The joint vertices are clipped exactly (``gk._clip_exact``) by the pins
    x'_j <= x_j and -x'_j <= -x_j, the float x read exactly; the rays left
    are the vertices (x, y) of the fiber, and none left means it is empty
    (``ParameterInfeasible``).  Cut 0 keeps the optimal face, the hull of
    the vertices where c.y equals the exact v(x); a positive cut clips once
    more, with the exact row c.y <= v(x) + cut, from the pin clip's
    incidence (the joint's columns, then the pins).  The x columns are
    dropped and the vertices rounded once, and they keep the rank-band check.
    """
    x = _as_param(x)
    n = spec.a_matrix.shape[1]
    H, act = spec.joint
    unit = np.eye(H.shape[1] - 1)[:n]
    pins = [gk._int_row(s * u, s * v) for u, v in zip(unit, x, strict=True) for s in (1.0, -1.0)]
    out = gk._clip_exact(H, act, pins)
    if out is None:  # the joint set is bounded: no ray has w = 0
        raise ParameterInfeasible(f"no feasible response at parameter {x}")
    H, act = out
    c = np.concatenate([np.zeros(n), spec.cost])
    vals = gk._values(H, c)
    v = min(vals)
    if cut == 0:
        H = H[[u == v for u in vals]]
    else:
        H = gk._clip_exact(H, act, [gk._int_row(c, v + Fraction(cut))])[0]
    return gk._build_polytope(gk._to_float(H[:, n:]), tol)


def bilevel_solution(spec: BilevelLinearSpec, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    """Optimal-face polytope of the lower level at parameter x.

    The optimal value, read exactly off the fiber's vertices, is turned into
    a rational two-sided cut, so degenerate faces are captured without
    tolerance slack.
    """
    return _linear_fiber(spec, x, tol, 0.0)


def eps_argmin(spec: BilevelLinearSpec, eps: float, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    """Relaxed solution set {y feasible : c.y <= v(x) + eps}; full-dimensional
    whenever the fiber has interior."""
    if eps <= 0:
        raise ValueError("relaxation must be positive")
    return _linear_fiber(spec, x, tol, eps)


# ---------------------------------------------------------------------------
# map specs


@dataclass(frozen=True, eq=False)
class MapSpecBase:
    """Common surface of parametric polytope-valued maps."""

    @property
    def circle(self) -> bool:
        return False

    def distance(self, x, x2) -> float:
        a = np.asarray(_as_param(x))
        b = np.asarray(_as_param(x2))
        if self.circle:
            d = abs(float(a[0] - b[0]))
            return min(d, 1.0 - d)
        return float(np.linalg.norm(a - b))

    def in_domain(self, x) -> bool:
        """x within 1e-12 of the box ``domain``: a pre-check; an empty linear
        fiber raises ``ParameterInfeasible``, a ``DomainViolation``."""
        p = _as_param(x)
        if len(p) != len(self.domain):
            return False
        return all(lo - 1e-12 <= v <= hi + 1e-12 for v, (lo, hi) in zip(p, self.domain))


@dataclass(frozen=True, eq=False)
class TrapezoidMap(MapSpecBase):
    """x -> conv{(0,0), (1,0), (1,x), (x^(1/4), x)} on [0, 1]; 1-Lipschitz in
    the Hausdorff metric but with a non-Lipschitz uniform-law expectation."""

    domain: tuple = (((0.0, 1.0)),)

    kind = "trapezoid"

    def evaluate(self, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
        (v,) = _as_param(x)
        a = v ** 0.25
        return gk.from_vrep([(0.0, 0.0), (1.0, 0.0), (1.0, v), (a, v)], tol)


@dataclass(frozen=True, eq=False)
class QMap(MapSpecBase):
    """x -> conv{(0,-x), (1,-x), (1,x^q), (0,0)} on [0, 1]; q-Lipschitz, with
    a volume-ratio function whose Lipschitz behavior flips at q = 2."""

    q: float = 2.0
    domain: tuple = ((0.0, 1.0),)

    kind = "qmap"

    def __post_init__(self):
        if self.q < 1.0:
            raise ValueError("exponent must be >= 1")

    def evaluate(self, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
        (v,) = _as_param(x)
        return gk.from_vrep([(0.0, -v), (1.0, -v), (1.0, v**self.q), (0.0, 0.0)], tol)


@dataclass(frozen=True, eq=False)
class RotSegMap(MapSpecBase):
    """x -> 2 conv{gamma(x), -gamma(x)} with gamma(x) = (cos pi x, sin pi x),
    on the circle [0, 1) with the intrinsic metric min(|dx|, 1-|dx|)."""

    domain: tuple = ((0.0, 1.0),)

    kind = "rotseg"

    @property
    def circle(self) -> bool:
        return True

    def in_domain(self, x) -> bool:
        p = _as_param(x)
        return len(p) == 1 and -1e-12 <= p[0] < 1.0

    def evaluate(self, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
        (v,) = _as_param(x)
        g = np.array([math.cos(math.pi * v), math.sin(math.pi * v)])
        return gk.from_vrep([2.0 * g, -2.0 * g], tol)


@dataclass(frozen=True, eq=False)
class InterpMap(MapSpecBase):
    """t -> Minkowski interpolation t*B + (1-t)*A on [0, 1] (a Hausdorff
    geodesic between the endpoint bodies)."""

    body_a: Polytope = None
    body_b: Polytope = None
    domain: tuple = ((0.0, 1.0),)

    kind = "interp"

    def evaluate(self, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
        (t,) = _as_param(x)
        return gk.minkowski_interpolate(self.body_a, self.body_b, t, tol)


@dataclass(frozen=True, eq=False)
class _LinearFiberMap(MapSpecBase):
    """Maps whose images are the slices ``_linear_fiber`` of ``spec`` at
    ``cut`` (0: the optimal face).  The domain is the set of x with a
    nonempty fiber; ``domain`` is the parameter box ``spec.x_box``, which
    equals it for a scalar x and bounds it otherwise."""

    cut = 0.0

    @property
    def domain(self) -> tuple:
        lo, hi = self.spec.x_box
        return tuple((float(l), float(h)) for l, h in zip(lo, hi))

    def evaluate(self, x, tol: Tolerances = DEFAULT_TOL) -> Polytope:
        return _linear_fiber(self.spec, x, tol, self.cut)


@dataclass(frozen=True, eq=False)
class BilevelSolutionMap(_LinearFiberMap):
    """x -> optimal face of the fully linear lower level."""

    spec: BilevelLinearSpec = None

    kind = "bilevel_linear"


@dataclass(frozen=True, eq=False)
class EpsArgminMap(_LinearFiberMap):
    """x -> eps-relaxed solution set of the fully linear lower level."""

    spec: BilevelLinearSpec = None
    eps: float = 0.1

    kind = "eps_argmin"

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("relaxation must be positive")

    cut = property(lambda self: self.eps)


@dataclass(frozen=True, eq=False)
class GenericAffineMap(_LinearFiberMap):
    """x -> {y : B y <= b - A x}: an affine-in-parameter right-hand side with
    fixed row normals (the polytopal case of affinely moving constraints),
    the optimal face of the zero cost."""

    a_matrix: np.ndarray = None
    b_matrix: np.ndarray = None
    rhs: np.ndarray = None
    spec: BilevelLinearSpec = field(default=None, init=False, repr=False)

    kind = "generic_affine"

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.b_matrix, dtype=float))
        spec = BilevelLinearSpec(a_matrix=self.a_matrix, b_matrix=B, rhs=self.rhs, cost=np.zeros(B.shape[1]))
        object.__setattr__(self, "a_matrix", spec.a_matrix)
        object.__setattr__(self, "b_matrix", spec.b_matrix)
        object.__setattr__(self, "rhs", spec.rhs)
        object.__setattr__(self, "spec", spec)


MapSpec = Union[
    TrapezoidMap, QMap, RotSegMap, InterpMap, BilevelSolutionMap, EpsArgminMap, GenericAffineMap
]


def eval_map(spec: MapSpec, x, tol: Tolerances = DEFAULT_TOL, exact: bool = False) -> Polytope:
    """Image polytope of the map at parameter x (domain-checked).

    ``exact`` is ignored: every linear fiber is enumerated exactly.  It is
    kept only because the benchmark's workloads still pass it."""
    if not spec.in_domain(x):
        raise DomainViolation(f"parameter {x} outside the domain of {spec.kind}")
    return spec.evaluate(x, tol)


def dim_profile(spec: MapSpec, grid: Sequence, tol: Tolerances = DEFAULT_TOL):
    """Intrinsic image dimension along the grid."""
    return [eval_map(spec, x, tol).intrinsic_dim for x in grid]


# ---------------------------------------------------------------------------
# rectangular decompositions


@dataclass(frozen=True, eq=False)
class RectDecomposition:
    """Inner/outer rectangular sandwich  t0 + r0  <=  S(x) - shift  <=  t1 + r1.

    The generic construction produces a single orthogonal part (r0 is r1); the
    hand decomposition of the power wedge uses distinct inner and outer parts.
    ``t0`` is None when the inner intersection came up empty (reported, not an
    error).
    """

    t0: Optional[Polytope]
    t1: Polytope
    r0: Optional[Polytope]
    r1: Polytope
    anchor: tuple
    shift: np.ndarray
    anchor_dim: int
    image_dim: int
    at_anchor: bool
    sandwich_margin: float

    @property
    def r(self) -> Polytope:
        return self.r1

    @property
    def sandwich_ok(self) -> bool:
        return self.sandwich_margin >= 0.0


def _sandwich_check(t0, r0, t1, r1, target: Polytope, tol: Tolerances) -> float:
    """25 feas_tol u, u = ``gk._unit`` of the target's vertices, less the
    largest vertex violation of t0 + r0 <= target (if t0) and target <= t1 + r1."""
    gap = 0.0
    if t0 is not None and r0 is not None:
        inner = gk.minkowski_sum(t0, r0, tol)
        gap = max(gap, float(target.violation(inner.vrep).max()))
    gap = max(gap, float(gk.minkowski_sum(t1, r1, tol).violation(target.vrep).max()))
    return 25.0 * tol.feas_tol * gk._unit(target.vrep) - gap


def rect_decompose(
    spec: MapSpec,
    x_anchor,
    x,
    tol: Tolerances = DEFAULT_TOL,
) -> RectDecomposition:
    """Decompose S(x) around the anchor image.

    With s the mean-width centroid of S(x_anchor) and F = span(S(x_anchor)-s):
    t1 is the projection of S(x)-s onto F, the orthogonal part r is the
    projection onto the complement, and t0 intersects the translates of
    S(x)-s over the extreme points of r.  At x == x_anchor this degenerates to
    t0 = t1 = S(x_anchor)-s and r = {0}.
    """
    if not spec.in_domain(x_anchor) or not spec.in_domain(x):
        raise DomainViolation("anchor or probe parameter outside the map domain")
    s_bar = eval_map(spec, x_anchor, tol)
    s = gk.steiner_point(s_bar, tol)
    s_x = eval_map(spec, x, tol)
    shifted = gk.translate(s_x, -s)

    basis = s_bar.frame.basis
    comp = s_bar.frame.complement
    zero = np.zeros(s_bar.ambient_dim)
    t1 = gk.project(shifted, AffineFrame(origin=zero, basis=basis), tol)
    r_part = gk.project(shifted, AffineFrame(origin=zero, basis=comp), tol)

    r_verts = r_part.vrep
    t0: Optional[Polytope] = gk.translate(shifted, -r_verts[0])
    for z in r_verts[1:]:
        t0 = gk.intersect(t0, gk.translate(shifted, -z), tol)
        if t0 is None:
            break

    return RectDecomposition(
        t0=t0,
        t1=t1,
        r0=None if t0 is None else r_part,
        r1=r_part,
        anchor=_as_param(x_anchor),
        shift=s,
        anchor_dim=s_bar.intrinsic_dim,
        image_dim=s_x.intrinsic_dim,
        at_anchor=spec.distance(x_anchor, x) == 0.0,
        sandwich_margin=_sandwich_check(t0, r_part, t1, r_part, shifted, tol),
    )


def qmap_reference_decomposition(spec: QMap, x, tol: Tolerances = DEFAULT_TOL) -> RectDecomposition:
    """Hand decomposition of the power wedge anchored at 0: tangential part
    [0,1] x {0} for both sides, inner orthogonal part {0} x [-x, 0], outer
    {0} x [-x, x^q]."""
    (v,) = _as_param(x)
    seg = gk.from_vrep([(0.0, 0.0), (1.0, 0.0)], tol)
    r0 = gk.from_vrep([(0.0, -v), (0.0, 0.0)], tol)
    r1 = gk.from_vrep([(0.0, -v), (0.0, v**spec.q)], tol)
    target = eval_map(spec, v, tol)
    return RectDecomposition(
        t0=seg, t1=seg, r0=r0, r1=r1, anchor=(0.0,),
        shift=np.zeros(2), anchor_dim=1, image_dim=target.intrinsic_dim,
        at_anchor=v == 0.0, sandwich_margin=_sandwich_check(seg, r0, seg, r1, target, tol),
    )


def _measure_in_dim(P: Polytope, d: int) -> float:
    if P.intrinsic_dim == d:
        return gk.volume(P)
    if P.intrinsic_dim < d:
        return 0.0
    raise DimensionDrift(f"a part of dimension {P.intrinsic_dim} exceeds the decomposition's {d}")


def h_ratio(decomp: RectDecomposition) -> float:
    """Inner-to-outer volume ratio of the decomposition,
    (|r0|_{d} * |t0|_{k}) / (|r1|_{d} * |t1|_{k}) with k the anchor dimension
    and d the dimension jump; equals 1 at the anchor by convention."""
    if decomp.at_anchor:
        return 1.0
    if decomp.t0 is None or decomp.r0 is None:
        raise ZeroDenominator("inner part of the decomposition is empty")
    d = decomp.image_dim - decomp.anchor_dim
    if d < 0:
        raise DimensionDrift(
            f"image dimension {decomp.image_dim} is below the anchor dimension {decomp.anchor_dim}"
        )
    num = _measure_in_dim(decomp.r0, d) * _measure_in_dim(decomp.t0, decomp.anchor_dim)
    den = _measure_in_dim(decomp.r1, d) * _measure_in_dim(decomp.t1, decomp.anchor_dim)
    if num <= 0.0:
        raise ZeroDenominator("inner part of the decomposition has zero measure")
    return num / den


# ---------------------------------------------------------------------------
# selections


def steiner_selection(spec: MapSpec, grid: Sequence, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Mean-width-centroid selection x -> s(S(x)); each point is certified to
    lie in the relative interior by the centroid routine itself."""
    return np.array([gk.steiner_point(eval_map(spec, x, tol), tol) for x in grid])


@functools.lru_cache(maxsize=32)
def _unit_ball_polytope(facets: int, m: int) -> Polytope:
    """The regular polytope circumscribed about the unit ball at 0: tangent
    rows u . y <= 1 at ``facets`` equally spaced directions u in the plane,
    at ``facets`` sphere nodes and their antipodes above it."""
    if m == 2:
        ang = 2.0 * math.pi * np.arange(facets) / facets
        normals = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        normals = gk._sphere_nodes(m, facets, DEFAULT_TOL.rng_seed)
        normals = np.vstack([normals, -normals])
    return gk.from_hrep(normals, np.ones(len(normals)))


def ball_polytope(center, radius: float, facets: int, m: int) -> Polytope:
    """Circumscribed regular polytope around a ball (contains it; contained in
    the ball inflated by ``ball_slack_factor``): the unit one, scaled and
    translated."""
    if facets < 8:
        raise ValueError("need at least 8 facets")
    center = np.asarray(center, dtype=float)
    if radius <= 0.0:
        return gk._build_polytope(center[None, :], DEFAULT_TOL)
    return gk.translate(gk.scale(_unit_ball_polytope(facets, m), radius), center)


def ball_slack_factor(facets: int, m: int) -> float:
    """Ratio of the circumscribed polytope's circumradius to the ball radius:
    the largest vertex norm of the unit one."""
    return float(np.max(np.linalg.norm(_unit_ball_polytope(facets, m).vrep, axis=1)))


@dataclass(frozen=True, eq=False)
class SelectionResult:
    points: np.ndarray  # (g, m)
    slack_factor: float


def _anchored_steiner(img: Polytope, y, ball_facets: int, tol: Tolerances) -> np.ndarray:
    """Mean-width centroid of img cut by the ball about y of twice y's
    distance to img; y itself within feas_tol u of img (u of both)."""
    d, _ = gk.dist_point(img, y)
    if d <= tol.feas_tol * max(gk._unit(img.vrep), gk._unit(y)):
        cap = gk._build_polytope(np.asarray(y, dtype=float)[None, :], tol)
    else:
        cap = ball_polytope(y, 2.0 * d, ball_facets, img.ambient_dim)
    inter = gk.intersect(img, cap, tol)
    assert inter is not None  # the ball radius guarantees a nonempty intersection
    return gk.steiner_point(inter, tol)


def lipschitz_selection(
    spec: MapSpec,
    x_anchor,
    y_anchor,
    grid: Sequence,
    ball_facets: int = 64,
    tol: Tolerances = DEFAULT_TOL,
) -> SelectionResult:
    """Selection through a prescribed anchor point: the mean-width centroid of
    S(x) intersected with a circumscribed ball of radius twice the distance
    from the anchor value to S(x).  At the anchor the intersection collapses
    to the anchor value itself.  The value must lie within 10 feas_tol u of
    the anchor image, u of the image's vertices and the value."""
    if ball_facets < 8:
        raise ValueError("need at least 8 ball facets")
    anchor_img = eval_map(spec, x_anchor, tol)
    y_anchor = np.asarray(y_anchor, dtype=float)
    if not anchor_img.contains(y_anchor, 10 * tol.feas_tol * max(gk._unit(anchor_img.vrep), gk._unit(y_anchor))):
        raise ValueError("anchor value must belong to the anchor image")
    pts = np.array([
        _anchored_steiner(eval_map(spec, x, tol), y_anchor, ball_facets, tol) for x in grid
    ])
    return SelectionResult(points=pts, slack_factor=ball_slack_factor(ball_facets, anchor_img.ambient_dim))


@dataclass(frozen=True, eq=False)
class FrameSelectionResult:
    frames: np.ndarray  # (g, m, m), orthonormal columns
    step_ratios: np.ndarray  # (g-1,) max column increment per unit parameter distance
    containment_defects: np.ndarray  # (g,) worst H-rep violation of the first k columns
    dim: int


def _frame_step(src, dst, seeds, comp, ball_facets, tol):
    """One continuation step of the moving-frame construction between two
    images centered at their mean-width centroids.

    dst is rescaled by kappa = 1 + 1/r(src) so the seed directions of unit
    norm lie inside it; each seed is continued by the anchored
    ball-intersection selection and the columns are re-orthonormalized.
    Returns the frame and the rescaled dst.
    """
    dst = gk.scale(dst, 1.0 + 1.0 / gk.inner_radius(src, tol))
    m = dst.ambient_dim
    k = len(seeds)
    cols = [_anchored_steiner(dst, y_bar, ball_facets, tol) for y_bar in seeds]
    for j in range(m - k):
        cols.append(comp[:, j])
    B = np.empty((m, m))
    for j, u in enumerate(cols):
        v = np.asarray(u, dtype=float).copy()
        for prev in range(j):
            v -= (v @ B[:, prev]) * B[:, prev]
        nv = float(np.linalg.norm(v))
        if nv < 1e-10:
            raise DimensionDrift(
                "selections became linearly dependent; refine the grid near the failure"
            )
        B[:, j] = v / nv
    return B, dst


def frame_selection(
    spec: MapSpec,
    x_anchor,
    grid: Sequence,
    ball_facets: int = 64,
    tol: Tolerances = DEFAULT_TOL,
) -> FrameSelectionResult:
    """Moving orthonormal frames whose first k columns track span(S(x)).

    The local construction (center at the mean-width centroid, rescale by
    1 + 1/inner-radius, continue unit seed directions by anchored
    ball-intersection selections, Gram-Schmidt) is marched along the grid,
    re-anchoring at the previous grid point; the anchor parameter seeds the
    first step; each image is centered once.  Requires constant image
    dimension; near genuine discontinuities (e.g. the antipodal seam of a
    rotating segment on the circle) the per-step increments blow up and are
    reported, not repaired.
    """
    grid = list(grid)
    imgs = [eval_map(spec, x, tol) for x in grid]
    dims = {p.intrinsic_dim for p in imgs}
    anchor_img = eval_map(spec, x_anchor, tol)
    dims.add(anchor_img.intrinsic_dim)
    if len(dims) != 1:
        raise DimensionDrift(f"image dimension varies across the grid: {sorted(dims)}")
    k = anchor_img.intrinsic_dim
    m = anchor_img.ambient_dim
    if k == 0:
        raise DimensionDrift("frames need at least 1-dimensional images")

    seeds = [anchor_img.frame.basis[:, i] for i in range(k)]
    comp = anchor_img.frame.complement

    frames = np.empty((len(grid), m, m))
    defects = np.empty(len(grid))
    centered = [gk.translate(p, -gk.steiner_point(p, tol)) for p in [anchor_img, *imgs]]
    for gi in range(len(grid)):
        B, dst = _frame_step(centered[gi], centered[gi + 1], seeds, comp, ball_facets, tol)
        frames[gi] = B
        defects[gi] = float(dst.violation(B[:, :k].T).max())
        seeds = [B[:, i] for i in range(k)]
        comp = B[:, k:]
    steps = np.empty(max(len(grid) - 1, 0))
    for gi in range(len(grid) - 1):
        d = spec.distance(grid[gi], grid[gi + 1])
        inc = float(np.max(np.linalg.norm(frames[gi + 1] - frames[gi], axis=0)))
        steps[gi] = inc / d if d > 0 else math.inf
    return FrameSelectionResult(frames=frames, step_ratios=steps, containment_defects=defects, dim=k)
