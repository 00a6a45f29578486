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
from scipy import sparse
from scipy.optimize import linprog

from . import geomkernel as gk
from .errors import (
    DegreeCapExceeded,
    PositivityViolation,
    ResolutionTooCoarse,
    SolverStall,
)
from .geomkernel import DEFAULT_TOL, Polytope, Tolerances

DEGREE_CAP = 8


@dataclass(frozen=True)
class Polynomial:
    """Polynomial integrand on R^m: terms maps exponent tuples to coefficients."""

    terms: tuple  # tuple of (exponent tuple, coeff), sorted
    dim: int
    lip_hint: Optional[float] = None

    @staticmethod
    def from_dict(terms: dict, dim: int, lip_hint=None, cap: int = DEGREE_CAP) -> "Polynomial":
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
        return Polynomial(terms=tuple(sorted(clean.items())), dim=dim, lip_hint=lip_hint)

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
    lip_hint: Optional[float] = None
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
    1986, ch. 5)."""
    if n < 1:
        raise ValueError("need at least one sample")
    k = P.intrinsic_dim
    if k == 0:
        return np.repeat(P.vrep[:1], n, axis=0)
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

    Closed form from intersection volumes when the affine hulls coincide;
    mutually singular (distance 2) otherwise.
    """
    if not pair.common_hull:
        return 2.0
    P, Q = pair.P, pair.Q
    vol_p = gk.volume(P)
    vol_q = gk.volume(Q)
    inter = gk.intersect(P, Q, tol)
    vol_i = 0.0
    if inter is not None and inter.intrinsic_dim == P.intrinsic_dim:
        vol_i = gk.volume(inter)
    return (
        (vol_p - vol_i) / vol_p
        + (vol_q - vol_i) / vol_q
        + vol_i * abs(1.0 / vol_p - 1.0 / vol_q)
    )


def _segment_coords_on_common_line(P: Polytope, Q: Polytope, tol: Tolerances):
    """If P and Q are points/segments on one common line, return their
    1-D interval coordinates (a, b), (c, d) on that line, else None."""
    if P.intrinsic_dim > 1 or Q.intrinsic_dim > 1:
        return None
    pts = np.vstack([P.vrep, Q.vrep])
    center = pts.mean(axis=0)
    diffs = pts - center
    svals = np.linalg.svd(diffs, compute_uv=False)
    if gk._numerical_rank(svals, tol.rank_tol, strict=False) > 1:
        return None
    if svals.size == 0 or svals[0] == 0.0:
        axis = np.zeros(P.ambient_dim)
        axis[0] = 1.0
    else:
        axis = np.linalg.svd(diffs, full_matrices=False)[2][0]
    tp = (P.vrep - center) @ axis
    tq = (Q.vrep - center) @ axis
    return (float(tp.min()), float(tp.max())), (float(tq.min()), float(tq.max()))


def _w1_uniform_intervals(a, b, c, d) -> float:
    """Exact W1 between uniform laws on [a,b] and [c,d] via the quantile
    integral of |(a-c) + t((b-a)-(d-c))|."""
    alpha = a - c
    gamma = (b - a) - (d - c)
    if abs(gamma) < 1e-15:
        return abs(alpha)
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
    exact volume of the piece in the cell, cut from the support's frame vertex
    array in one double-description step per piece and axis (``_grid_pieces``,
    no per-cell polytope or clip), mass placed at the piece centroid — and the
    transportation LP is solved; the reported error bound is 2 * cell diameter.
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
    cells_per_axis = np.maximum(1, np.ceil((hi - lo) / resolution - 1e-12).astype(int))
    a_mass, a_pts = _grid_pieces(P, lo, resolution, cells_per_axis, tol)
    b_mass, b_pts = _grid_pieces(Q, lo, resolution, cells_per_axis, tol)
    cost = np.linalg.norm(a_pts[:, None, :] - b_pts[None, :, :], axis=-1)
    value = _transport_lp(a_mass / a_mass.sum(), b_mass / b_mass.sum(), cost)
    return value, 2.0 * resolution * math.sqrt(P.ambient_dim)


def _grid_pieces(R: Polytope, lo, resolution: float, cells_per_axis, tol: Tolerances):
    """(masses, centroids) of R's pieces in the grid cells its bounding box
    meets, in ``itertools.product`` order (axis 0 outermost).  R is cut axis
    by axis on its frame vertex array: x_j = g is the unit row
    (B[j] / |B[j]|) . t = (g - o_j) / |B[j]|, and ``gk._slab_pieces`` cuts a
    piece by all interior lines of an axis in one step, exact because each
    vertex of a slab's piece is a vertex of the piece or an edge's crossing
    with a wall.  A line within feas_tol of R's extent is not interior: the
    slab beyond it would hold only R's points within feas_tol of the line,
    such as the coplanar corners of an axis-aligned face, which span no
    k-volume and which Delaunay cannot triangulate.  An axis is skipped where
    R meets one cell or x_j is constant on R (|B[j]| <= feas_tol)."""
    k = R.intrinsic_dim
    B, o = R.frame.basis, R.frame.origin
    r_lo, r_hi = R.bounding_box()
    r_lo, r_hi = r_lo + tol.feas_tol, r_hi - tol.feas_tol
    i_lo = np.clip(np.floor((r_lo - lo) / resolution).astype(int), 0, cells_per_axis - 1)
    i_hi = np.clip(np.floor((r_hi - lo) / resolution - 1e-12).astype(int), i_lo, cells_per_axis - 1)
    pieces = [(R.vertices_frame, list(zip(*R.intrinsic_facets)))]
    for j in range(R.ambient_dim):
        ln = float(np.linalg.norm(B[j]))
        if i_lo[j] == i_hi[j] or ln <= tol.feas_tol:
            continue
        u = B[j] / ln
        g = (lo[j] + np.arange(i_lo[j] + 1, i_hi[j] + 1) * resolution - o[j]) / ln
        pieces = [cell for V, rows in pieces for cell in gk._slab_pieces(V, rows, u, g, tol.feas_tol)]
    masses, centroids = [], []
    for V, _ in pieces:
        if 0 < k < len(V):  # fewer points span no k-volume; a point is too coarse
            S, vols = gk._simplex_volumes(V, k)
            if (w := vols.sum()) > 0.0:
                masses.append(w)
                centroids.append(vols @ V[S].mean(axis=1) / w)
    if len(masses) < 8:
        raise ResolutionTooCoarse(f"only {len(masses)} cells receive mass; refine the grid")
    return np.array(masses), R.frame.to_ambient(np.array(centroids))


def _transport_lp(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> float:
    """Transportation LP between discrete measures (scipy HiGHS backend).  The
    last column-marginal row is redundant and left out, the CSR matrix being
    built without it: HiGHS presolve calls the full system infeasible when
    the two totals differ in the last ulp."""
    n1, n2 = cost.shape
    # row i < n1 holds columns i*n2 .. i*n2+n2-1; row n1+j holds j, n2+j, ...
    cols = np.concatenate([np.arange(n1 * n2), (np.arange(n2 - 1)[:, None] + n2 * np.arange(n1)).ravel()])
    ptr = np.concatenate([n2 * np.arange(n1 + 1), n1 * n2 + n1 * np.arange(1, n2)])
    A = sparse.csr_matrix((np.ones(cols.size), cols, ptr), shape=(n1 + n2 - 1, n1 * n2))
    b_eq = np.concatenate([a, b])[:-1]
    res = linprog(cost.ravel(), A_eq=A, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverStall(f"transportation LP failed: {res.message}")
    return float(res.fun)
