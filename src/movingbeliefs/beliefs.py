"""Uniform and density-weighted laws on polytopes, their expectations, and
distances between them.

The uniform ("neutral") law on a support lives on the Lebesgue measure of the
support's affine hull; a singleton support carries the Dirac mass.  Total
variation follows the un-halved convention (supremum of expectation gaps over
test functions bounded by 1, range [0, 2]) — much software halves this, we do
not.  Uniform laws on supports with distinct affine hulls are mutually
singular, so their total variation distance is exactly 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from . import geomkernel as gk
from .convexsolve import equality_lp as linprog  # the name the transport LP is traced under
from .errors import (
    DegreeCapExceeded,
    PositivityViolation,
    ResolutionTooCoarse,
    ZeroDenominator,
)
from .geomkernel import DEFAULT_TOL, Polytope, Tolerances

DEGREE_CAP = 8
MAX_TRANSPORT_COLUMNS = 2**23  # admits resolution 0.02 on unit-size planar pairs: 51^4 columns


@dataclass(frozen=True)
class Polynomial:
    """Polynomial integrand on R^m: terms maps exponent tuples to coefficients."""

    terms: tuple  # tuple of (exponent tuple, coeff), sorted
    dim: int

    @staticmethod
    def from_dict(terms: dict, dim: int, cap: int = DEGREE_CAP) -> "Polynomial":
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != dim or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for dimension {dim}")
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            if coeff != 0.0:
                clean[exps] = clean.get(exps, 0.0) + float(coeff)
        deg = max((sum(e) for e in clean), default=0)
        if deg > cap:
            raise DegreeCapExceeded(f"degree {deg} exceeds the cap {cap}")
        return Polynomial(terms=tuple(sorted(clean.items())), dim=dim)

    @staticmethod
    def constant(c: float, dim: int) -> "Polynomial":
        return Polynomial.from_dict({(0,) * dim: c}, dim)

    @staticmethod
    def coordinate(i: int, dim: int) -> "Polynomial":
        exps = [0] * dim
        exps[i] = 1
        return Polynomial.from_dict({tuple(exps): 1.0}, dim)

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for exps, coeff in self.terms:
            term = np.full(pts.shape[0], coeff)
            for j, e in enumerate(exps):
                if e:
                    term = term * pts[:, j] ** e
            out += term
        return out

    def multiply(self, other: "Polynomial") -> "Polynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        prod: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0.0) + c1 * c2
        # internal products may exceed the public cap; the quadrature handles it
        return Polynomial.from_dict(prod, self.dim, cap=2 * DEGREE_CAP)


@dataclass(frozen=True)
class Opaque:
    """Black-box integrand; expectations fall back to Monte Carlo."""

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    label: str = "opaque"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(pts), dtype=float).reshape(pts.shape[0])


Integrand = Union[Polynomial, Opaque]


@dataclass(frozen=True)
class Belief:
    """Law family over a moving support: uniform by default, or re-weighted by
    a strictly positive density."""

    density: Optional[Integrand] = None

    @property
    def is_neutral(self) -> bool:
        return self.density is None


NEUTRAL = Belief()


@dataclass(frozen=True, eq=False)
class MeasurePair:
    """Two supports compared as measures; ``common_hull`` records whether the
    affine hulls coincide (decides absolute continuity)."""

    P: Polytope
    Q: Polytope
    common_hull: bool

    @staticmethod
    def make(P: Polytope, Q: Polytope, tol: Tolerances = DEFAULT_TOL) -> "MeasurePair":
        return MeasurePair(P=P, Q=Q, common_hull=gk.same_affine_hull(P, Q, tol))


# ---------------------------------------------------------------------------
# simplex quadrature


@lru_cache(maxsize=64)
def _gm_rule(k: int, s: int):
    """Grundmann-Moller rule of degree 2s+1 on the standard k-simplex.

    Returns (points (q, k), weights (q,)); the weights are used in normalized
    form so any global constant cancels.
    """
    d = 2 * s + 1
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + k - 2 * i
        w = (-1.0) ** i * 2.0 ** (-2 * s) * float(denom) ** d / (
            math.factorial(i) * math.factorial(d + k - i)
        )
        for beta in _compositions(s - i, k + 1):
            coords = [(2 * b + 1) / denom for b in beta[1:]]
            pts.append(coords)
            wts.append(w)
    return np.array(pts), np.array(wts)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_average(f: Callable, vertices: np.ndarray, degree: int):
    """Average of ``f`` over each simplex of the stack ``vertices``
    ((..., k+1, m)), exact for polynomials up to ``degree``; ``f`` is called
    once, at every quadrature node of every simplex."""
    pts, wts = _gm_rule(vertices.shape[-2] - 1, degree // 2)  # smallest s with 2s+1 >= degree
    V0 = vertices[..., :1, :]
    ambient = V0 + pts @ (vertices[..., 1:, :] - V0)
    vals = f(ambient.reshape(-1, vertices.shape[-1])).reshape(ambient.shape[:-1])
    return np.vecdot(vals, wts) / wts.sum()


# ---------------------------------------------------------------------------
# expectations


def expect_neutral(P: Polytope, f: Integrand, tol: Tolerances = DEFAULT_TOL) -> float:
    """E[f] under the uniform law on P: exact triangulation + simplex
    quadrature for polynomials, Monte Carlo for opaque integrands."""
    value, _ = expect_neutral_with_error(P, f, tol)
    return value


def expect_neutral_with_error(
    P: Polytope, f: Integrand, tol: Tolerances = DEFAULT_TOL, n_samples: int = 20000
):
    """Like ``expect_neutral`` but reports the standard error: 0 on the exact
    polynomial path, std(ddof=1)/sqrt(n) of the i.i.d. ``sample_uniform``
    values on the Monte Carlo path, which needs ``n_samples >= 2``."""
    if n_samples < 2:
        raise ValueError("the standard error needs at least 2 samples")
    if P.intrinsic_dim == 0:
        return float(f(P.vrep[:1])[0]), 0.0
    if isinstance(f, Polynomial):
        S, vols, mass = _triangulation(P)
        return float((vols * simplex_average(f, P.vrep[S], f.degree)).sum() / mass), 0.0
    vals = f(sample_uniform(P, n_samples, tol.rng_seed))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def _triangulation(P: Polytope):
    """(S, vols, mass): the simplices of P's frame triangulation, their
    volumes and the total; a zero total raises ``ValueError``."""
    S, vols = P.triangulation
    mass = vols.sum()
    if mass == 0.0:
        raise ValueError("degenerate triangulation")
    return S, vols, mass


def expect_density(P: Polytope, h: Integrand, f: Integrand, tol: Tolerances = DEFAULT_TOL) -> float:
    """E[f] under the density-h re-weighting of the uniform law:
    E_u[h f] / E_u[h]; exact when both factors are polynomial."""
    _check_positive(P, h, tol)
    if isinstance(h, Polynomial) and isinstance(f, Polynomial):
        num = expect_neutral(P, h.multiply(f), tol)
        den = expect_neutral(P, h, tol)
    else:
        hf = Opaque(fn=lambda pts: np.asarray(h(pts)) * np.asarray(f(pts)), dim=P.ambient_dim)
        num = expect_neutral(P, hf, tol)
        den = expect_neutral(P, h if isinstance(h, Opaque) else Opaque(fn=h, dim=P.ambient_dim), tol)
    return num / den


def _check_positive(P: Polytope, h: Integrand, tol: Tolerances, n: int = 256) -> None:
    """Exact at the vertices for affine densities, whose minimum over a
    polytope sits at a vertex; other densities are also sampled at n points."""
    pts = P.vrep
    if not (isinstance(h, Polynomial) and h.degree <= 1):
        pts = np.vstack([pts, sample_uniform(P, n, tol.rng_seed ^ 0x5EED)])
    if np.min(h(pts)) <= 0.0:
        raise PositivityViolation("density must be strictly positive on the support")


def expect(P: Polytope, belief: Belief, f: Integrand, tol: Tolerances = DEFAULT_TOL) -> float:
    if belief.is_neutral:
        return expect_neutral(P, f, tol)
    return expect_density(P, belief.density, f, tol)


# ---------------------------------------------------------------------------
# sampling


def sample_uniform(P: Polytope, n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points on P (deterministic per seed), exact in every
    dimension: a simplex of the triangulation drawn with probability
    proportional to its volume, then flat-Dirichlet barycentric weights from
    normalized exponentials (Devroye, Non-Uniform Random Variate Generation,
    1986, ch. 5); a point is one 0-simplex of measure 1."""
    if n < 1:
        raise ValueError("need at least one sample")
    k = P.intrinsic_dim
    S, vols, mass = _triangulation(P)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(S), n, p=vols / mass)
    w = rng.exponential(size=(n, k + 1))
    w /= w.sum(axis=1, keepdims=True)
    return P.frame.to_ambient(np.einsum("nj,njk->nk", w, P.vertices_frame[S[picked]]))


# ---------------------------------------------------------------------------
# distances between uniform laws


def tv_distance(pair: MeasurePair, tol: Tolerances = DEFAULT_TOL) -> float:
    """Total variation (un-halved, range [0, 2]) between the uniform laws.

    Closed form when the affine hulls coincide: the densities 1/vol P and
    1/vol Q differ by |1/vol P - 1/vol Q| on P ∩ Q, so the distance is
    2 - 2 vol(P ∩ Q) / max(vol P, vol Q); mutually singular (distance 2)
    otherwise.  Two bodies of k-volume 0 carry no uniform law:
    ``ZeroDenominator``, naming k.
    """
    if not pair.common_hull:
        return 2.0
    P, Q = pair.P, pair.Q
    vol = max(gk.volume(P), gk.volume(Q))
    if vol == 0.0:
        raise ZeroDenominator(f"both bodies have {P.intrinsic_dim}-volume 0, so neither carries a uniform law")
    return 2.0 - 2.0 * gk._common_volume(P, Q, tol) / vol


def _segment_coords_on_common_line(P: Polytope, Q: Polytope, tol: Tolerances):
    """Their interval coordinates (a, b), (c, d) in the frame of the segment
    L among them (P if it is one) when every vertex lies within feas_tol u
    of L's line, u as in ``gk.same_affine_hull``; else None."""
    if P.intrinsic_dim > 1 or Q.intrinsic_dim > 1:
        return None
    L = P if P.intrinsic_dim else Q
    off = (np.vstack([P.vrep, Q.vrep]) - L.frame.origin) @ L.frame.complement
    if float(np.linalg.norm(off, axis=1).max()) > tol.feas_tol * max(gk._unit(P.vrep), gk._unit(Q.vrep)):
        return None
    tp, tq = L.frame.to_frame(P.vrep)[:, 0], L.frame.to_frame(Q.vrep)[:, 0]
    return (float(tp.min()), float(tp.max())), (float(tq.min()), float(tq.max()))


def _w1_uniform_intervals(a, b, c, d) -> float:
    """Exact W1 between uniform laws on [a,b] and [c,d] via the quantile
    integral of |(a-c) + t((b-a)-(d-c))|."""
    alpha = a - c
    gamma = (b - a) - (d - c)
    u0, u1 = alpha, alpha + gamma
    if u0 * u1 >= 0:
        return abs(u0 + u1) / 2.0
    return (u0 * u0 + u1 * u1) / (2.0 * abs(gamma))


def w1_distance(
    pair: MeasurePair,
    resolution: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
):
    """(Wasserstein-1 distance, error bound).

    Exact (error 0) for Dirac pairs and for uniform laws on intervals of a
    common line (which covers ambient dimension 1).  Otherwise both laws are
    discretized on a shared axis-aligned grid — cell mass proportional to the
    exact volume of the piece in the cell, all pieces of a support cut from
    its frame vertex array in one stacked double-description step per axis
    (``_grid_pieces``, no per-cell polytope or clip), mass placed at the
    piece centroid, the moments of all pieces from one stacked pass
    (``_piece_moments``) — and the transportation LP goes to the HiGHS
    bindings as arrays, without presolve and without scipy's ``linprog``
    layer, the costs c over u = ``gk._unit`` of both supports' vertices;
    the reported error bound is 2 * cell diameter.  HiGHS's primal simplex
    starts from the spanning tree of the matrix-minimum rule
    (``_least_cost_tree``, through ``_transport_lp``).  For overlapping
    laws the tree is taken in order of c, and its zero-cost arcs keep the
    shared mass in place.  For separated laws -- the gap between the two
    discrete means at least half their RMS spread, the root of the mean of
    the two laws' second moments about their means -- it is taken in order
    of the reduced costs r_ij = c_ij - e.(y_j - x_i) / u, where x_i and y_j
    are the two laws' grid points and e is the unit vector from a's mean to
    b's: a dual-informed crash (Peyre and Cuturi, Computational Optimal
    Transport, 2019, ch. 3).  The linear potential y -> e.y is 1-Lipschitz,
    so r >= 0 up to rounding (Cauchy-Schwarz), and it is the optimal
    potential when Q is an exact translate of P.  On overlapping laws it
    gives r near 0 to every arc along e, and the rule ships mass across the
    body first: on the neighbouring images of the eps-relaxed toy map that
    ``probe.verify_w1_regime`` compares, it took 82 simplex iterations per
    LP against 2 in order of c.  The LP is solved on c to optimality either
    way, so the value is the LP optimum; the order changes only the path to
    it.

    The resolution must be positive and finite, and at least 2**-52 of the
    grid's span (finer grid lines are not distinct doubles): ValueError
    otherwise.  The dense LP has one column per pair of pieces, and at most
    ``MAX_TRANSPORT_COLUMNS`` = 2**23 are admitted, which takes resolution
    0.02 on unit-size planar pairs (at most 51^4 columns).  Peak memory runs
    to about 620 bytes per column (cost matrix, the order matrix of
    separated laws, the tree's sort order, LP arrays, starting basis and
    HiGHS's work), about 4.9 GiB at the cap.  The cap is checked twice,
    each time raising ValueError: on each support's bounding-box cell count
    before it is cut, and on the product of the piece counts before the
    cost matrix is built.
    """
    P, Q = pair.P, pair.Q
    if P.intrinsic_dim == 0 and Q.intrinsic_dim == 0:
        return float(np.linalg.norm(P.vrep[0] - Q.vrep[0])), 0.0
    coords = _segment_coords_on_common_line(P, Q, tol)
    if coords is not None:
        (a, b), (c, d) = coords
        return _w1_uniform_intervals(a, b, c, d), 0.0

    lo = np.minimum(P.vrep.min(axis=0), Q.vrep.min(axis=0))
    hi = np.maximum(P.vrep.max(axis=0), Q.vrep.max(axis=0))
    span = float(np.max(hi - lo))
    if resolution is None:
        resolution = span / 12.0
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise ValueError(f"the W1 resolution must be positive and finite, got {resolution}")
    if not span / resolution < 2.0**52:
        raise ValueError(f"resolution {resolution:g} is below 2**-52 of the span {span:g}: "
                         "its grid lines are not distinct doubles")
    cells_per_axis = np.maximum(1, np.ceil((hi - lo) / resolution - 1e-12).astype(int))
    u = max(gk._unit(P.vrep), gk._unit(Q.vrep))
    a_mass, a_pts = _grid_pieces(P, lo, resolution, cells_per_axis, tol.feas_tol * u)
    b_mass, b_pts = _grid_pieces(Q, lo, resolution, cells_per_axis, tol.feas_tol * u)
    if len(a_mass) * len(b_mass) > MAX_TRANSPORT_COLUMNS:
        raise ValueError(f"resolution {resolution:g}: {len(a_mass)} x {len(b_mass)} transport columns, "
                         f"above the cap of {MAX_TRANSPORT_COLUMNS}")
    a, b = a_mass / a_mass.sum(), b_mass / b_mass.sum()
    cost = np.linalg.norm(a_pts[:, None, :] - b_pts[None, :, :], axis=-1) / u
    mean_a, mean_b = a @ a_pts, b @ b_pts
    gap = (mean_b - mean_a) / u  # exactly 0 for P = Q
    spread2 = (a @ np.square(a_pts - mean_a).sum(1) + b @ np.square(b_pts - mean_b).sum(1)) / (2.0 * u * u)
    order = cost
    if gap @ gap >= 0.25 * spread2:  # separated laws: the mean gap is at least half the RMS spread
        e = gap / np.linalg.norm(gap)
        order = cost + ((a_pts - mean_a) @ e / u)[:, None]  # the potential taken about a's mean
        order -= (b_pts - mean_a) @ e / u
    value = u * _transport_lp(a, b, cost, order)
    return value, 2.0 * resolution * math.sqrt(P.ambient_dim)


def _grid_pieces(R: Polytope, lo, resolution: float, cells_per_axis, eps: float):
    """(masses, centroids) of R's pieces in the grid cells its bounding box
    meets, in ``itertools.product`` order (axis 0 outermost).  R is cut axis
    by axis on its frame vertex array: x_j = g is the unit row
    (B[j] / |B[j]|) . t = (g - o_j) / |B[j]|, and ``gk._slab_pieces`` cuts
    every piece of the stack by all interior lines of an axis in one step,
    exact because each vertex of a slab's piece is a vertex of the piece or
    an edge's crossing with a wall.  The pieces travel as one stack: their
    points stacked with per-piece counts, their rows padded to one count.
    The slab step's tolerance is the length eps (feas_tol u).  A line within
    eps of R's extent is not interior: the slab beyond it would hold only
    R's points within eps of the line, such as the coplanar corners of an
    axis-aligned face, which span no k-volume and which Delaunay cannot
    triangulate.  An axis is skipped where R meets one cell or x_j is
    constant on R (``gk._clip``'s rule).  Before R is cut, its pieces are
    counted by the arrangement bound of a k-flat cut by l_j interior lines
    on each axis j, sum_{i<=k} e_i(l) with e_i the elementary symmetric sums
    (the bounding box's cell count when k = m); a bound above
    ``MAX_TRANSPORT_COLUMNS`` raises ValueError.  The pieces' masses and
    centroids come from one stacked pass over them all (``_piece_moments``);
    pieces of at most k points or of zero k-volume carry no mass and are
    left out."""
    k = R.intrinsic_dim
    B, o = R.frame.basis, R.frame.origin
    r_lo, r_hi = R.bounding_box()
    r_lo, r_hi = r_lo + eps, r_hi - eps
    i_lo = np.clip(np.floor((r_lo - lo) / resolution).astype(int), 0, cells_per_axis - 1)
    i_hi = np.clip(np.floor((r_hi - lo) / resolution - 1e-12).astype(int), i_lo, cells_per_axis - 1)
    e = [1] + [0] * k  # e[i]: i-th elementary symmetric sum of the interior line counts
    for lines in (i_hi - i_lo).tolist():
        for i in range(k, 0, -1):
            e[i] += e[i - 1] * lines
    if sum(e) > MAX_TRANSPORT_COLUMNS:
        raise ValueError(f"resolution {resolution:g}: up to {sum(e)} grid cells meet one support, above the "
                         f"cap of {MAX_TRANSPORT_COLUMNS} transport columns")
    N, C = R.intrinsic_facets
    T, n, N, C = R.vertices_frame, np.array([len(R.vertices_frame)]), N[None], C[None]
    for j in range(R.ambient_dim):
        ln = float(np.linalg.norm(B[j]))
        if i_lo[j] == i_hi[j] or ln * gk._unit(R.vertices_frame) <= eps:
            continue
        u = B[j] / ln
        g = (lo[j] + np.arange(i_lo[j] + 1, i_hi[j] + 1) * resolution - o[j]) / ln
        T, n, N, C = gk._slab_pieces(T, n, N, C, u, g, eps)
    kept = (n > k) & (k > 0)  # fewer points span no k-volume; a point is too coarse
    masses, centroids = _piece_moments(T[kept.repeat(n)], n[kept], k) if kept.any() else ([], [])
    if len(masses) < 8:
        raise ResolutionTooCoarse(f"only {len(masses)} cells receive mass; refine the grid")
    return masses, R.frame.to_ambient(centroids)


def _piece_moments(T: np.ndarray, n: np.ndarray, k: int):
    """(masses, centroids) of the stacked frame point sets of ``T``, the
    n[q] points from sum(n[:q]) on being piece q, each of more than k >= 1
    points, in order, leaving out those of zero k-volume.  One stacked pass
    over all pieces: each is triangulated -- in the plane by the fan from
    the first point of its ccw ring, every ring from one ``lexsort`` of the
    angles about the pieces' means; above it by Delaunay, piece by piece --
    and the simplices' volumes (one stacked determinant, each the one
    ``gk._simplex_volumes`` takes, ValueError on overflow) and
    volume-weighted vertex means are summed per piece by ``np.bincount``."""
    start = np.cumsum(n) - n
    if k == 2:
        d = T - (np.add.reduceat(T, start) / n[:, None]).repeat(n, axis=0)
        ring = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), np.arange(len(n)).repeat(n)))
        count = n - 2  # fan triangles per piece; the i-th is ring[s], ring[s+1+i], ring[s+2+i]
        at = np.arange(count.sum()) + (start - np.cumsum(count) + count + 1).repeat(count)
        S = np.column_stack([ring[start.repeat(count)], ring[at], ring[at + 1]])
    else:
        S = [gk._triangulate_frame(T[s : s + c], k, None) + s for s, c in zip(start.tolist(), n.tolist())]  # no ring
        count = np.array([len(s) for s in S])
        S = np.vstack(S)
    owner = np.arange(len(n)).repeat(count)
    X = T[S]
    vols = gk._volumes(X, k)
    mass = np.bincount(owner, vols, len(n))
    moment = np.column_stack([np.bincount(owner, vols * c, len(n)) for c in X.mean(axis=1).T])
    keep = mass > 0.0
    return mass[keep], moment[keep] / mass[keep, None]


def _transport_lp(a: np.ndarray, b: np.ndarray, cost: np.ndarray, order: np.ndarray) -> float:
    """Transportation LP between discrete measures, its column-wise matrix
    written directly and solved by HiGHS's primal simplex from the
    spanning-tree basis ``_least_cost_tree`` builds in the order of
    ``order`` (a matrix of cost's shape) through
    ``convexsolve.equality_lp`` (bound here as ``linprog``, with the cost
    first and the basis sixth).  The LP is solved on ``cost`` to optimality
    whatever the order: the order only picks the starting basis.  Column
    i n2 + j, the mass sent from a's i to b's j, has a 1 in row i and, for
    j < n2 - 1, in row n1 + j: the last column-marginal row is redundant and
    left out, because HiGHS presolve calls the full system infeasible when
    the two totals differ in the last ulp.  Dropping one node's row from the
    incidence matrix of a spanning tree leaves it nonsingular, so the tree
    is a basis of this system.  Presolve is off: once that row is gone it
    removes no row, column or nonzero of a transportation LP (HiGHS reports
    it "Not reduced"), yet cost about a quarter of the solve.  The optimum
    agrees with HiGHS's dual simplex from the slack basis, with and without
    presolve, to HiGHS's 1e-7."""
    n1, n2 = cost.shape
    rows = np.column_stack([np.arange(n1).repeat(n2), n1 + np.tile(np.arange(n2), n1)]).ravel()
    index = rows[rows < n1 + n2 - 1]
    col = np.arange(n1 * n2 + 1)
    start = 2 * col - col // n2  # one entry dropped per column j = n2 - 1 before col
    return linprog(cost.ravel(), start, index, np.ones(index.size), np.concatenate([a, b])[:-1],
                   _least_cost_tree(a, b, order))


def _least_cost_tree(a: np.ndarray, b: np.ndarray, order: np.ndarray) -> list:
    """The n1 + n2 - 1 arcs (flat indices i n2 + j) of a spanning tree on
    the n1 rows and n2 columns of ``order``, by the matrix-minimum rule
    (Peyre and Cuturi, Computational Optimal Transport, 2019, ch. 3): in
    increasing ``order`` (a stable sort), each arc whose row and column
    are both open sends min(remaining a_i, remaining b_j) and closes one of
    them, the row when a_i < b_j and the column otherwise.  A closed line
    takes no later arc, and each arc closes one line, so the arcs form one
    tree per open line.  Once a single row (or column) is left open, the
    rest of the spanning tree is its arcs to every open column (or row):
    the rule takes them in order until the row closes, and a row that
    closes early (after negative masses, or totals an ulp apart) must still
    be joined to the columns left open.  Those arcs are added at once."""
    n1, n2 = order.shape
    left_a, left_b = a.tolist(), b.tolist()
    row_open, col_open = [True] * n1, [True] * n2
    rows, cols = n1, n2  # open lines
    arcs = []
    if rows > 1 and cols > 1:
        for k in np.argsort(order, axis=None, kind="stable").tolist():
            i, j = divmod(k, n2)
            if row_open[i] and col_open[j]:
                arcs.append(k)
                if left_a[i] < left_b[j]:
                    row_open[i], rows = False, rows - 1
                    left_b[j] -= left_a[i]
                else:
                    col_open[j], cols = False, cols - 1
                    left_a[i] -= left_b[j]
                if rows == 1 or cols == 1:
                    break
    if rows == 1:
        i = row_open.index(True)
        return arcs + [i * n2 + c for c in range(n2) if col_open[c]]
    j = col_open.index(True)
    return arcs + [r * n2 + j for r in range(n1) if row_open[r]]
