"""Convex polytope kernel.

Dual-representation polytopes carrying an orthonormal affine frame and an
intrinsic dimension, with exact-where-possible measures (triangulated
intrinsic volume, Steiner points from external angles, exact for intrinsic
dimension up to 3) and the convex-body maps the rest of the package builds
on: Hausdorff distance, Minkowski interpolation, symmetric-difference
volume, minimum enclosing balls (Welzl's recursion in every dimension),
radial/inner-radius functionals and orthogonal projections.

Conventions
-----------
* The 0-dimensional measure of a point is 1, so the uniform law on a
  singleton is the Dirac mass (the unique consistent extension of the
  normalized-volume definition).
* Vertex sets are stored lexicographically sorted; ties in extreme-point
  pruning are therefore broken deterministically.
* H-representations carry unit row normals and include affine-hull pinning
  rows for lower-dimensional polytopes.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from . import convexsolve
from .convexsolve import _unit
from .errors import (
    AffineHullMismatch,
    EmptyInput,
    Infeasible,
    NumericalRankAmbiguity,
    OriginNotContained,
    OriginNotRelativeInterior,
    QhullFailure,
    QhullJoggleWarning,
    QuadratureBudgetExceeded,
    Unbounded,
)


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy threaded through every operation.

    feas_tol is relative to the scale u = ``_unit`` of the operands'
    coordinates: a length tolerance is feas_tol u; rank_tol is relative to
    the largest singular value; rng_seed feeds every randomized estimator so
    runs are reproducible bit for bit.
    """

    feas_tol: float = 1e-9
    rank_tol: float = 1e-9
    sphere_nodes: int = 20000
    rng_seed: int = 20250810

    def __post_init__(self):
        if not (self.feas_tol > 0 and self.rank_tol > 0 and self.sphere_nodes > 0):  # NaN too
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()

MAX_COORD = 1e150  # largest coordinate magnitude: squared differences stay finite


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AffineFrame:
    """Affine subspace {origin + basis @ t} with orthonormal basis columns."""

    origin: np.ndarray  # (m,)
    basis: np.ndarray  # (m, k), orthonormal columns

    def __post_init__(self):
        object.__setattr__(self, "origin", _readonly(self.origin))
        object.__setattr__(self, "basis", _readonly(np.asarray(self.basis, dtype=float).reshape(self.origin.shape[0], -1)))

    @property
    def ambient_dim(self) -> int:
        return self.origin.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def to_frame(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.origin) @ self.basis

    def to_ambient(self, coords: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(coords, dtype=float))
        if self.dim == 0:
            return np.repeat(self.origin[None, :], t.shape[0], axis=0)
        return self.origin + t @ self.basis.T

    @cached_property
    def complement(self) -> np.ndarray:
        """Orthonormal basis (m, m-k) of the orthogonal complement of span(basis)."""
        m, k = self.basis.shape
        if k == m:
            return np.zeros((m, 0))
        full = np.linalg.svd(self.basis, full_matrices=True)[0]
        comp = full[:, k:]
        return _canonical_signs(comp)

    def orthonormality_defect(self) -> float:
        k = self.dim
        return float(np.max(np.abs(self.basis.T @ self.basis - np.eye(k)))) if k else 0.0


@dataclass(frozen=True, eq=False)
class Polytope:
    """Nonempty compact convex polytope with cached dual representations.

    ``vrep`` holds exactly the extreme points (lexicographically sorted);
    ``hrep_normals/hrep_offsets`` give unit-normal rows M y <= q: the facet
    rows, then the pinning rows +-d y <= +-d o for each direction d of the
    frame's complement when the polytope is lower-dimensional; ``frame``
    spans the affine hull; ``intrinsic_dim`` is its dimension k.
    ``boundary`` comes from the same hull computation as the vertices and
    the facet rows, as indices into ``vrep``: the ccw vertex ring in frame
    coordinates for k = 2, the (f, k) facet simplices of Qhull's
    triangulated boundary for k >= 3, and every vertex for k <= 1.
    """

    hrep_normals: np.ndarray  # (p, m)
    hrep_offsets: np.ndarray  # (p,)
    vrep: np.ndarray  # (n, m)
    frame: AffineFrame
    intrinsic_dim: int
    boundary: np.ndarray
    volume_cache: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "hrep_normals", _readonly(np.atleast_2d(self.hrep_normals)))
        object.__setattr__(self, "hrep_offsets", _readonly(np.atleast_1d(self.hrep_offsets)))
        object.__setattr__(self, "vrep", _readonly(np.atleast_2d(self.vrep)))
        self.boundary.setflags(write=False)

    @property
    def hrep(self):
        return self.hrep_normals, self.hrep_offsets

    @property
    def ambient_dim(self) -> int:
        return self.vrep.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vrep.shape[0]

    @cached_property
    def vertices_frame(self) -> np.ndarray:
        return self.frame.to_frame(self.vrep)

    @cached_property
    def intrinsic_facets(self):
        """(N, c): unit facet normals/offsets in frame coordinates, N t <= c,
        read off the H-rep's facet rows (M_f, q_f) as N = M_f B and
        c = q_f - M_f o for the frame (o, B)."""
        nf = len(self.hrep_offsets) - 2 * (self.ambient_dim - self.intrinsic_dim)
        M = self.hrep_normals[:nf]
        return M @ self.frame.basis, self.hrep_offsets[:nf] - M @ self.frame.origin

    @cached_property
    def triangulation(self):
        """(S, vols): the frame triangulation and the k-volume of each of its
        simplices, built once; a point is one 0-simplex of measure 1.  A
        k-volume beyond the largest double raises ValueError."""
        S, vols = _simplex_volumes(self.vertices_frame, self.intrinsic_dim, self.boundary)
        S.setflags(write=False)
        vols.setflags(write=False)
        return S, vols

    def violation(self, Y) -> np.ndarray:
        """max_i (M_i y - q_i) for each point y of Y: at most 0 inside, and a
        lower bound on d(y, P) outside, because the rows are unit normals."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if self.hrep_normals.shape[0] == 0:
            return np.linalg.norm(Y - self.vrep[0], axis=1)
        return np.max(Y @ self.hrep_normals.T - self.hrep_offsets, axis=1)

    def contains(self, y, tol: float = DEFAULT_TOL.feas_tol) -> bool:
        return bool(self.violation(y)[0] <= tol)

    def bounding_box(self):
        return self.vrep.min(axis=0), self.vrep.max(axis=0)

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        """Assert the type invariants; used by the test-suite."""
        M, q = self.hrep
        u = _unit(self.vrep)
        if M.shape[0]:
            worst = float(np.max(M @ self.vrep.T - q[:, None]))
            if worst > 10 * tol.feas_tol * u:
                raise AssertionError(f"vertex violates H-rep by {worst}")
        if self.frame.orthonormality_defect() > 1e-12:
            raise AssertionError("frame basis is not orthonormal to 1e-12")
        d = self.vrep - self.vrep.mean(axis=0)
        if self.n_vertices > 1:
            resid = d - (d @ self.frame.basis) @ self.frame.basis.T
            if float(np.max(np.abs(resid))) > 1e-7 * u:
                raise AssertionError("frame does not span the vertex differences")
        svals = np.linalg.svd(d, compute_uv=False) if self.n_vertices > 1 else np.zeros(1)
        if _numerical_rank(svals, tol.rank_tol, strict=False, floor=tol.feas_tol * u) != self.intrinsic_dim:
            raise AssertionError("intrinsic_dim disagrees with numerical rank")


# ---------------------------------------------------------------------------
# construction helpers


def _canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Each column negated where its entry of largest magnitude is negative."""
    lead = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])]
    return np.where(lead < 0, -basis, basis)


def _numerical_rank(svals: np.ndarray, rank_tol: float, strict: bool = True, floor: float = 0.0) -> int:
    """Singular values above rank_tol relative to the largest and above the
    absolute ``floor``."""
    svals = np.asarray(svals, dtype=float)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    thresh = rank_tol * svals[0]
    lo, hi = thresh / 10.0, thresh * 10.0
    band = (lo < svals) & (svals < hi)
    if strict and band.any():
        raise NumericalRankAmbiguity(
            f"singular value {svals[band.argmax()]:.3e} lies inside the rank band ({lo:.1e}, {hi:.1e})"
        )
    return int(np.count_nonzero(svals > max(thresh, floor)))


def _spans(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges start[k], ..., start[k] + count[k] - 1, concatenated."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


@cache
def _window_direction(m: int) -> np.ndarray:
    """The unit vector along (sqrt 2, sqrt 3, ..., sqrt(m + 1)): irrational
    ratios, so points of a lattice or on a coordinate line spread along it."""
    u = np.sqrt(np.arange(2.0, m + 2.0))
    return _readonly(u / np.linalg.norm(u))


def _dedup_points(pts: np.ndarray, tol: float) -> np.ndarray:
    """The points in lexicographic order, each kept iff no kept point lies
    within ``tol``; the close pairs are taken in lexicographic order of
    their later point.  Exact repeats, never kept, are dropped first.  With
    no two neighbours along ``_window_direction`` within 2 tol no pair is
    close (a pair within tol lies within tol along every unit direction),
    and all are kept at once; otherwise a k-d tree lists the pairs within
    2 tol, a superset of the close pairs whose size does not grow with the
    points that merely share a window."""
    pts = pts[np.lexsort(pts.T[::-1])]
    new = (pts[1:] != pts[:-1]).any(axis=1)
    if not new.all():
        pts = pts[np.concatenate([[True], new])]
    x = np.sort(pts @ _window_direction(pts.shape[1]))
    if not (x[:-1] >= x[1:] - 2.0 * tol).any():
        return pts
    i, j = cKDTree(pts).query_pairs(2.0 * tol, output_type="ndarray").T  # i < j
    diff = pts[i] - pts[j]
    close = np.sqrt(np.vecdot(diff, diff)) <= tol
    keep = np.ones(len(pts), dtype=bool)
    for p, q in sorted(zip(j[close].tolist(), i[close].tolist())):
        keep[p] &= not keep[q]
    return pts[keep]


def _monotone_chain(t: np.ndarray, eps: float):
    """Indices of hull vertices of 2-D points ``t`` in ccw order; collinear
    interior points are dropped.  Both scans run on Python floats, whose
    arithmetic is numpy's IEEE double arithmetic."""
    order = np.lexsort((t[:, 1], t[:, 0]))
    pts = t[order].tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def scan(idx):
        chain = []
        for i in idx:
            while len(chain) >= 2 and cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= eps:
                chain.pop()
            chain.append(i)
        return chain[:-1]

    return order[scan(range(len(pts))) + scan(range(len(pts) - 1, -1, -1))]


def _build_polytope(points: np.ndarray, tol: Tolerances, strict_rank: bool = True) -> Polytope:
    """Canonicalize an ambient point cloud into a Polytope: dedup, detect the
    affine hull, and take the extreme points, the facet rows and the
    boundary from one hull computation in coordinates t about the points'
    centroid: the monotone chain's ccw ring and its edges for k = 2; for
    k >= 3 one ``ConvexHull``, whose vertices, ``equations`` (the first of
    each group of coplanar facets) and facet ``simplices`` these are.  A
    facet row N t <= c is the ambient row (N B^T) y <= c + (N B^T) . centroid;
    the frame origin is the vertices' mean.  Coordinates above ``MAX_COORD``
    raise ValueError.  Points within the merge distance feas_tol u (u =
    ``_unit`` of the points) are one point, and a direction of no greater
    width is rounding noise.  The dedup returns at once when no two
    neighbours along its direction lie within twice the merge distance: no
    pair is then close, so every point would be kept anyway."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("no points supplied")
    peak = float(np.abs(pts).max())
    if not peak <= MAX_COORD:  # NaN and inf too
        bound = f"coordinates must be at most {MAX_COORD:g} in magnitude, got {peak:.3g}"
        raise ValueError(bound if math.isfinite(peak) else "points must be finite")
    m = pts.shape[1]
    u = _unit(peak)
    merge = tol.feas_tol * u
    pts = _dedup_points(pts, merge)  # lexicographically sorted, as vrep is

    centroid = pts.mean(axis=0)
    diffs = pts - centroid
    if pts.shape[0] == 1:
        k = 0
        basis = np.zeros((m, 0))
    else:
        _, svals, vt = np.linalg.svd(diffs, full_matrices=False)
        k = _numerical_rank(svals, tol.rank_tol, strict=strict_rank, floor=merge)
        basis = _canonical_signs(vt[:k].T)

    t = diffs @ basis  # (n, k)
    if k == 0:
        sel = bnd = np.array([0])
        N, c = np.zeros((0, 0)), np.zeros(0)
    elif k == 1:
        sel = bnd = np.array([np.argmin(t[:, 0]), np.argmax(t[:, 0])])
        N, c = np.array([[1.0], [-1.0]]), np.array([t[sel[1], 0], -t[sel[0], 0]])
    elif k == 2:
        sel = bnd = _monotone_chain(t, 1e-12 * u * u)
        ring = t[bnd]
        e = ring[np.arange(1, len(ring) + 1) % len(ring)] - ring
        N = e[:, ::-1] * (1.0, -1.0) / np.sqrt(np.vecdot(e, e))[:, None]
        c = np.vecdot(N, ring)
    else:
        hull, scale = _qhull(ConvexHull, t, "ConvexHull")
        eqs = hull.equations
        r = np.round(eqs, 9)
        order = np.lexsort(r.T[::-1])  # stable: each group of equal rows starts at its first row
        r = r[order]
        eqs = eqs[np.sort(order[np.concatenate([[True], (r[1:] != r[:-1]).any(axis=1)])])]
        eqs[:, -1] *= scale  # offsets back to the scale of t; normals are unit
        N, c = eqs[:, :-1], -eqs[:, -1]  # A t + b <= 0
        sel, bnd = hull.vertices, hull.simplices
    idx = np.sort(sel)
    vrep = pts[idx]
    frame = AffineFrame(origin=vrep.mean(axis=0), basis=basis)
    M = N @ basis.T
    if k < m:
        comp = frame.complement.T
        M, c = np.vstack([M, comp, -comp]), np.concatenate([c, np.zeros(2 * len(comp))])
    return Polytope(
        hrep_normals=M,
        hrep_offsets=c + M @ centroid,
        vrep=vrep,
        frame=frame,
        intrinsic_dim=k,
        boundary=np.searchsorted(idx, bnd),
    )


# ---------------------------------------------------------------------------
# incremental halfspace clipping (double-description style)


def _clip(V: np.ndarray, base_rows, new_rows, tol: float):
    """Clip the float polytope with vertex array ``V`` (full-dimensional in
    its d coordinates, described by ``base_rows``) with ``new_rows``; None
    when empty.  ``intersect`` is its one caller: a polytope given by rows
    alone is enumerated exactly (``from_hrep``).  Double description
    (Fukuda & Prodon 1996): a new row keeps the vertices it does not cut
    off and adds the cut point of every inside/outside pair spanning an
    edge, all pairs of the row in one array computation.  ``tol`` is a
    length: rows are normalized and slacks compared with it; at each row
    that cuts, ``_float_edges`` (shared with ``_slab_pieces``) recomputes
    the active matrix and tests the pairs; after it, V is deduplicated at
    ``tol``.  A row with |nrm| ``_unit(V)`` at most ``tol`` (V the input)
    is constant on V up to rounding: it holds everywhere, or nowhere where
    its offset is below -100 ``tol`` (normalizing it would amplify rounding
    noise into an arbitrary cut).  The exact rule is ``_clip_exact``'s.  A
    clip in which no row cuts returns ``V`` unchanged, in its input order.
    """
    d = V.shape[1]
    N = np.array([r[0] for r in base_rows], dtype=float).reshape(-1, d)
    C = np.array([r[1] for r in base_rows], dtype=float)
    reach = _unit(V)
    for nrm, off in new_rows:
        nrm = np.asarray(nrm, dtype=float)
        ln = float(np.linalg.norm(nrm))
        if ln * reach <= tol:
            if off < -100.0 * tol:
                return None
            continue
        nrm = nrm / ln
        off = off / ln
        s = off - V @ nrm
        out = s < -tol
        if out.all():
            return None
        if out.any():
            I, J = np.nonzero(s > tol)[0], np.nonzero(out)[0]
            i, j = np.repeat(I, len(J)), np.tile(J, len(I))
            ok = _float_edges(V, N, C, i, j, tol)
            i, j = i[ok], j[ok]
            P = V[i] + (s[i] / (s[i] - s[j]))[:, None] * (V[j] - V[i])
            V = _dedup_points(np.vstack([V[~out], P]), tol)
        N, C = np.vstack([N, nrm]), np.append(C, off)
    return V


def _float_edges(V: np.ndarray, N: np.ndarray, C: np.ndarray, i: np.ndarray, j: np.ndarray, tol: float):
    """Mask of the vertex pairs (i[p], j[p]) that span an edge of
    {y : N y <= C}, the rows shared by all points (N (r, d) and C (r,), as
    ``_clip`` passes them) or each point's own (N (n, r, d) and C (n, r),
    as ``_slab_pieces`` passes its pieces' rows).  The pair's common active
    rows (within 100 ``tol``, a loose length: spurious candidates are pruned
    later, missed edges would lose vertices) number >= d-1 and, for d > 2,
    have rank d-1 by one stacked SVD.  A pad row 0 . y <= 1 is never
    active."""
    d = V.shape[1]
    act = np.abs((N @ V[:, :, None])[..., 0] - C) <= 100.0 * tol
    common = act[i] & act[j]
    ok = common.sum(axis=1) >= d - 1
    if d > 2 and ok.any():
        rows = N if N.ndim == 2 else N[i[ok]]
        sv = np.linalg.svd(common[ok][..., None] * rows, compute_uv=False)
        ok[ok] = np.sum(sv > 1e-7 * np.maximum(1.0, sv[:, :1]), axis=1) >= d - 1
    return ok


def _slab_pieces(T: np.ndarray, n: np.ndarray, N: np.ndarray, C: np.ndarray, u: np.ndarray, g: np.ndarray, tol: float):
    """Every piece of a stack of float polytopes cut by every line
    u . y = g[l] (u a unit row, g increasing) in one double-description
    step.  Piece q of the stack (T, n, N, C) has the n[q] points of T from
    sum(n[:q]) on as its vertices and the rows N[q] y <= C[q], padded to one
    row count with 0 . y <= 1.  Returns the stack of the nonempty slabs of
    every piece, sorted stably by (piece, slab), slab 0 below g[0]: a slab's
    points are what ``_clip`` with its walls returns, up to the rounding of
    cut points, and its rows are its piece's followed by its lower and its
    upper wall (a pad row for the missing wall of the first and last slab).

    Exact as one cut is: a vertex of a piece between two lines is one of its
    vertices in the slab or an edge's crossing with a wall.  ``tol`` is a
    length; a vertex within it of a line is in both slabs beside it.  The
    pairs of each piece, in row-major order, with a line more than ``tol``
    from both between them are edge-tested once (``_float_edges``); an edge
    gives a point, interpolated along it, on each line it crosses, for the
    two slabs beside the line.  A slab is deduplicated at ``tol``, as in ``_clip``,
    only where two of its points lie within 2 ``tol``."""
    L = len(g)
    owner = np.arange(len(n)).repeat(n)
    p = T @ u
    first = np.searchsorted(g, p - tol)  # slabs first..last of each vertex
    last = np.searchsorted(g, p + tol, side="right")
    i = np.arange(len(T)).repeat(n[owner])
    j = _spans((np.cumsum(n) - n)[owner], n[owner])
    between = last[i] < first[j]  # lines last[i] .. first[j]-1 lie between
    i, j = i[between], j[between]
    ok = _float_edges(T, N[owner], C[owner], i, j, tol)
    i, j = i[ok], j[ok]
    cuts = first[j] - last[i]
    line = _spans(last[i], cuts)
    i, j = i.repeat(cuts), j.repeat(cuts)
    P = T[i] + ((g[line] - p[i]) / (p[j] - p[i]))[:, None] * (T[j] - T[i])
    reps = last - first + 1
    slab = np.concatenate([_spans(first, reps), line, line + 1])
    key = np.concatenate([owner.repeat(reps), owner[i], owner[i]]) * (L + 1) + slab
    order = np.argsort(key, kind="stable")
    pts, key = np.vstack([T.repeat(reps, axis=0), P, P])[order], key[order]
    ends = np.flatnonzero(np.diff(key, append=-1)) + 1  # of the (piece, slab) groups
    count = np.diff(ends, prepend=0)
    group = np.arange(len(ends)).repeat(count)
    after = ends[group] - np.arange(len(pts)) - 1
    a = np.arange(len(pts)).repeat(after)
    diff = pts[a] - pts[_spans(np.arange(1, len(pts) + 1), after)]
    merge = np.unique(group[a[np.vecdot(diff, diff) <= 4.0 * tol * tol]])
    if merge.size:
        parts = np.split(pts, ends[:-1])
        for q in merge.tolist():
            parts[q] = _dedup_points(parts[q], tol)
            count[q] = len(parts[q])
        pts = np.vstack(parts)
    WN, WC = np.zeros((L + 1, 2, T.shape[1])), np.ones((L + 1, 2))
    WN[1:, 0], WC[1:, 0] = -u, -g
    WN[:-1, 1], WC[:-1, 1] = u, g
    q, l = np.divmod(key[ends - 1], L + 1)
    return pts, count, np.concatenate([N[q], WN[l]], axis=1), np.concatenate([C[q], WC[l]], axis=1)


def _integers(rows):
    """Rows of Python ints, floats or Fractions times their least common
    denominator: Python ints."""
    rows = [[v.as_integer_ratio() for v in r] for r in rows]
    lcd = math.lcm(*(d for r in rows for _, d in r))
    return [[n * (lcd // d) for n, d in r] for r in rows]


def _int_row(nrm, off) -> list:
    """The row nrm . y <= off as coprime integers (-a, b) with the same
    solutions, so the slack of a homogeneous vertex (X, w) is (-a, b) . (X, w)."""
    z = _integers([[*np.asarray(nrm).tolist(), off]])[0]
    g = math.gcd(*z) or 1
    return [-v // g for v in z[:-1]] + [z[-1] // g]


def _to_float(H: np.ndarray) -> np.ndarray:
    """X / w rounded as float(Fraction(X, w)): Python int division rounds
    correctly, and so does numpy's on int64 entries below 2**53, which
    convert to float exactly."""
    if H.dtype == object or np.abs(H).max() >= 2**53:
        H = H.astype(object)
    return (H[:, :-1] / H[:, -1:]).astype(float)


def _int_dtype(H: np.ndarray, rows) -> type:
    """int64 when |r|_1 * max|H|**2 < 2**62 for every row r, else object
    (Python ints).  The bound covers each slack r . h, each product s_i h_j
    and each difference s_i h_j - s_j h_i of a clipping step."""
    m = int(np.abs(H).max())
    return np.int64 if max((sum(map(abs, r)) for r in rows), default=0) * m * m < 2**62 else object


def _clip_exact(H: np.ndarray, base_rows, new_rows):
    """``_clip`` in exact arithmetic on homogeneous integer rays H = (X, w),
    w >= 0, which must be the extreme rays of the pointed cone {(X, w) :
    r . (X, w) >= 0 for r in base_rows} (``_cone_start``'s and
    ``_hrep_vertices``' are), with rows (-a, b) as from ``_int_row``;
    returns (H, act), or None when no ray is left.  The rays with w > 0 are
    the vertices X / w of the polyhedron, those with w = 0 its recession
    rays (Motzkin et al. 1953; Fukuda & Prodon 1996).

    The slacks of a row are s = H @ (-a, b) = b w - X a, of the sign of the
    rational slacks; the cut ray of an inside/outside pair (i, j) is
    s_i H_j - s_j H_i (its w is >= 0), divided by the gcd of its entries.
    The active matrix H @ R.T == 0 is computed once from the base rows, then
    inherited: a kept ray gains the column s == 0, a cut ray its pair's
    common rows plus the new row.  A pair spans an edge (a 2-face of the
    cone) iff it shares >= d-1 active rows and, for d > 2, no third ray is
    active on all of them; this combinatorial test is exact because H holds
    the extreme rays of a pointed cone.  Each row runs in int64 where
    ``_int_dtype`` proves that nothing overflows, else in Python ints.
    """
    d = H.shape[1] - 1
    R = np.array(base_rows, dtype=object).reshape(-1, d + 1)
    dt = _int_dtype(H, base_rows)
    act = H.astype(dt) @ R.astype(dt).T == 0
    for r in new_rows:
        if not any(r[:-1]):  # a zero row holds everywhere or forces w = 0
            if r[-1] < 0:
                return None
            continue
        dt = _int_dtype(H, [r])
        H = H.astype(dt, copy=False)
        s = H @ np.array(r, dtype=dt)
        out = s < 0
        if not out.any():
            act = np.column_stack([act, s == 0])
            continue
        if out.all():
            return None
        I, J = np.nonzero(s > 0)[0], np.nonzero(out)[0]
        common = act[I][:, None] & act[J][None]
        ok = common.sum(axis=2) >= d - 1
        if d > 2 and ok.any():
            cand = common[ok]
            on_all = cand.astype(np.int64) @ act.T == cand.sum(axis=1)[:, None]
            ok[ok] = on_all.sum(axis=1) == 2
        ii, jj = np.nonzero(ok)
        i, j = I[ii], J[jj]
        P = s[i, None] * H[j] - s[j, None] * H[i]
        P //= np.gcd.reduce(P, axis=1)[:, None]
        H = np.vstack([H[~out], P])
        act = np.vstack([np.column_stack([act[~out], s[~out] == 0]),
                         np.column_stack([common[ii, jj], np.ones(len(i), bool)])])
    return H, act


def _cone_start(rows, d):
    """The start of a homogeneous double description for the integer rows
    (-a, b) of a . y <= b, as from ``_int_row``: (H, base_rows, other_rows)
    for ``_clip_exact``.

    The base rows are w >= 0, the row [0, ..., 0, 1], and the first d rows
    that raise the rank, in input order (as cdd picks them); they form a
    nonsingular matrix A0, and the extreme rays of the simplicial cone they
    bound are the columns of A0^-1, each with slack 1 on its own row and 0
    on the others.  One fraction-free Gauss-Jordan pass (Bareiss) on the
    columns of the transform C, every division exact, makes each row's
    slacks r . C zero but on one free pivot column; a row with no nonzero
    free slack depends on those before it.  At the end C = D A0^-1 up to the
    order of its columns, and the rays are its columns times the sign of D,
    over their gcds.  Where the rows have rank r < d, the result is instead
    (None, pivots, line): r coordinates on which the a have rank r, and an
    integer vector with a . line = 0 on every row."""
    C = [[int(i == j) for i in range(d + 1)] for j in range(d + 1)]  # C[j] is column j
    free, base, rest, D = list(range(d + 1)), [], [], 1
    for r in [[0] * d + [1], *rows]:
        c = next((j for j in free if sum(map(operator.mul, r, C[j]))), None)
        if c is None:
            rest.append(r)
            continue
        s = [sum(map(operator.mul, r, col)) for col in C]
        C = [col if j == c else [(s[c] * x - s[j] * y) // D for x, y in zip(col, C[c])]
             for j, col in enumerate(C)]
        D = s[c]
        free.remove(c)
        base.append(r)
    if free:
        return None, sorted(set(range(d)) - set(free)), C[free[0]][:d]
    H = np.array(C, dtype=object) * (1 if D > 0 else -1)
    return H // np.gcd.reduce(H, axis=1)[:, None], base, rest


def _direction(v) -> tuple:
    """The integer vector v over its largest entry in absolute value, in floats."""
    v = [int(x) for x in v]
    m = max(map(abs, v))
    return tuple(float(Fraction(x, m)) for x in v)


def _hrep_vertices(M, q) -> tuple:
    """The vertices of the polytope {y : M y <= q}, the float data read
    exactly, by the homogeneous double description: ``_cone_start``, then
    ``_clip_exact`` with the other rows.  Returns (H, rows): H the vertices
    as homogeneous integer rows (X, w), w > 0, with y = X / w exactly, and
    rows the integer rows of w >= 0 and of M y <= q (``_int_row``).  H is
    the set of extreme rays of those rows' cone, so ``_clip_exact(H, rows,
    more)`` clips the polytope further.  No ray with w > 0 left means the
    set is empty (``Infeasible``), a ray with w = 0 that it recedes along it
    (``Unbounded``, naming the ray).  When M has rank < d the set is empty
    or holds a line; the same call on M's pivot columns tells which."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    q = np.asarray(q, dtype=float)
    if q.shape != M.shape[:1]:
        raise ValueError("inconsistent inequality dimensions")
    if not (np.isfinite(M).all() and np.isfinite(q).all()):
        raise ValueError("inequality data must be finite")
    d = M.shape[1]
    rows = [_int_row(a, b) for a, b in zip(M, q)]
    H, base, rest = _cone_start(rows, d)
    if H is None:  # rank < d: empty, or it holds the line along ``rest``
        try:
            _hrep_vertices(M[:, base], q)
        except Unbounded:
            pass
        raise Unbounded(f"recession direction {_direction(rest)} and its opposite: the set holds a line")
    out = _clip_exact(H, base, rest)
    H = _bounded(np.zeros((0, d + 1), dtype=np.int64) if out is None else out[0])
    return H, [[0] * d + [1], *rows]


def _bounded(H: np.ndarray) -> np.ndarray:
    """H, the homogeneous rays of a polyhedron, when they are the vertices of
    a polytope: ``Infeasible`` without a ray with w > 0, ``Unbounded`` with
    one with w = 0."""
    if not (H[:, -1] > 0).any():
        raise Infeasible("inequality system has no solution")
    if not H[:, -1].all():
        raise Unbounded(f"recession direction {_direction(H[H[:, -1] == 0][0, :-1])}")
    return H


def _values(H: np.ndarray, c) -> list:
    """c . X / w at each homogeneous integer vertex (X, w) of H, as Fractions."""
    *num, den = _integers([[*np.asarray(c).tolist(), 1.0]])[0]  # c = num / den
    vals = (H[:, :-1].astype(object) @ np.array(num, dtype=object)).tolist()
    return [Fraction(v, w * den) for v, w in zip(vals, H[:, -1].tolist())]


# ---------------------------------------------------------------------------
# public constructors


def from_vrep(points: Sequence, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    """Polytope from a point cloud: conv(points) with interior points pruned."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInput("from_vrep needs at least one point")
    return _build_polytope(pts, tol)


def from_hrep(M: Sequence, q: Sequence, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    """Polytope from inequality rows M y <= q: the one vertex enumerator for
    polytopes given by rows.

    The float data are read exactly.  Feasibility and boundedness are
    decided exactly, and the vertices enumerated exactly, each rounded once
    (``_to_float``), by ``_hrep_vertices``; an empty set raises
    ``Infeasible``, an unbounded one ``Unbounded`` naming a recession
    direction, non-finite data ``ValueError``.
    """
    return _build_polytope(_to_float(_hrep_vertices(M, q)[0]), tol)


# ---------------------------------------------------------------------------
# measures and functionals


def volume(P: Polytope) -> float:
    """Intrinsic k-dimensional measure; a point has measure 1 by convention."""
    if P.volume_cache is None:
        object.__setattr__(P, "volume_cache", float(P.triangulation[1].sum()))
    return P.volume_cache


def _triangulate_frame(t: np.ndarray, k: int, ring) -> np.ndarray:
    """(s, k+1) vertex indices of a triangulation of the frame points t: for
    k = 2 the fan from the first vertex of the ccw ``ring`` of their hull
    (read for k = 2 only), for k >= 3 Delaunay's.  Coning a vertex over
    Qhull's facet simplices is not used above the plane: where Qhull merges
    facets a ridge can be shared by four of them (a 4-D example lost 7.3e-6
    of its volume, relative)."""
    if k == 0:
        return np.zeros((1, 1), dtype=int)
    if k == 1:
        return np.array([[np.argmin(t[:, 0]), np.argmax(t[:, 0])]])
    if k == 2:
        return np.column_stack([np.full(len(ring) - 2, ring[0]), ring[1:-1], ring[2:]])
    return _qhull(Delaunay, t, "Delaunay")[0].simplices


def _qhull(build, t: np.ndarray, name: str):
    """(``build(t / u)``, u) for Qhull's ``ConvexHull`` or ``Delaunay``
    (``name``), u = ``_unit(t)``: the division is exact, and Qhull sees
    unit-size coordinates on every input.  On t itself its precision limits
    fail far below ``MAX_COORD`` (the 4-cube of side 1e60 raised; at 1e110
    it crashed the process).  Vertices and simplices are
    indices; the caller scales offsets back by u.  Where Qhull rejects the
    points they are retried once with the ``QJ`` joggle, with a
    ``QhullJoggleWarning``; where the joggle fails too, ``QhullFailure``."""
    u = _unit(t)
    t = t / u
    try:
        return build(t), u
    except QhullError:
        warnings.warn(f"{name} fell back to the QJ joggle", QhullJoggleWarning, stacklevel=3)
    try:
        return build(t, qhull_options="QJ"), u
    except QhullError as exc:
        first = str(exc).strip().partition("\n")[0]
        raise QhullFailure(f"{name} failed on {len(t)} points in {t.shape[1]} dimensions, joggled too: {first}") from exc


def _simplex_volumes(t: np.ndarray, k: int, ring):
    """(S, vols): the triangulation of the frame points t (``ring`` as in
    ``_triangulate_frame``) and the k-volume of each of its simplices."""
    S = _triangulate_frame(t, k, ring)
    return S, _volumes(t[S], k)


def _volumes(X: np.ndarray, k: int) -> np.ndarray:
    """The k-volumes of the simplices X (s, k+1, k) from one stacked
    determinant.  Coordinates up to ``MAX_COORD`` can still give a k-volume
    beyond the largest double (side^k above 1.8e308): ValueError, naming k."""
    with np.errstate(over="ignore", invalid="ignore"):
        vols = np.abs(np.linalg.det(X[:, 1:] - X[:, :1])) / math.factorial(k)
    if not np.isfinite(vols).all():
        raise ValueError(f"a simplex's {k}-volume overflows a double")
    return vols


def triangulate(P: Polytope):
    """Simplices (lists of ambient vertex arrays) whose intrinsic volumes sum
    to volume(P); a point yields a single 0-simplex."""
    return list(P.vrep[P.triangulation[0]])


def support(P: Polytope, u) -> float:
    u = np.asarray(u, dtype=float)
    return float(np.max(P.vrep @ u))


def diameter(P: Polytope) -> float:
    V = P.vrep
    if V.shape[0] == 1:
        return 0.0
    d2 = np.sum((V[:, None, :] - V[None, :, :]) ** 2, axis=-1)
    return float(math.sqrt(np.max(d2)))


def radial(P: Polytope, u, tol: Tolerances = DEFAULT_TOL) -> float:
    """sup{t >= 0 : t*u in P} by ray clipping; requires 0 in P."""
    u = np.asarray(u, dtype=float)
    if not P.contains(np.zeros(P.ambient_dim), tol.feas_tol * _unit(P.vrep)):
        raise OriginNotContained("radial function needs 0 in the polytope")
    B = P.frame.basis
    drift = u - B @ (B.T @ u) if B.shape[1] else u
    # ray leaves the affine hull immediately unless u is parallel to it
    if float(np.linalg.norm(drift)) > 1e-9 * max(1.0, float(np.linalg.norm(u))):
        return 0.0
    M, q = P.hrep
    t_max = math.inf
    for i in range(M.shape[0]):
        a = float(M[i] @ u)
        if a > tol.feas_tol:
            t_max = min(t_max, float(q[i]) / a)
    if t_max is math.inf:  # bounded polytope: can only happen for a point at 0
        return 0.0
    return max(t_max, 0.0)


def inner_radius(P: Polytope, tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance from the origin to the nearest intrinsic facet; requires
    0 in the relative interior."""
    t0 = P.frame.to_frame(np.zeros(P.ambient_dim))[0]
    resid = np.linalg.norm(P.frame.to_ambient(t0)[0])
    eps = tol.feas_tol * _unit(P.vrep)
    if resid > 10 * eps:
        raise OriginNotRelativeInterior("origin is outside the affine hull")
    if P.intrinsic_dim == 0:
        raise OriginNotRelativeInterior("a point has empty relative interior")
    N, c = P.intrinsic_facets
    slack = c - N @ t0
    if np.any(slack <= eps):
        raise OriginNotRelativeInterior("origin is not strictly inside the intrinsic facets")
    return float(np.min(slack))


def steiner_point(P: Polytope, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Mean-width centroid of the polytope, s(P) = sum_v gamma(P, v) v.

    Computed inside the affine hull (the functional is compatible with
    embeddings) from the normalized external angles of ``_external_angles``:
    exact up to rounding for intrinsic dimension k <= 3, a sphere-node count
    with ``tol.sphere_nodes`` nodes (O(nodes^-1/2) error) above. Either way
    the result is a convex combination of vertices.
    """
    s_frame = _external_angles(P, tol) @ P.vertices_frame
    point = P.frame.to_ambient(s_frame)[0]
    N, c = P.intrinsic_facets
    if N.shape[0] and np.any(N @ s_frame - c > 100 * tol.feas_tol * _unit(P.vrep)):
        raise QuadratureBudgetExceeded(
            "computed point failed the relative-interior containment check"
        )
    return point


def _external_angles(P: Polytope, tol: Tolerances) -> np.ndarray:
    """Normalized external angle gamma_v (the share of the unit sphere in the
    normal cone at v) of each vertex of P in its frame; the gammas are
    nonnegative and sum to 1 (Schneider, Convex Bodies, section 5.4).  For
    k = 2 and 3 they are read off ``P.boundary``: the turn angles along the
    ccw ring, and Girard's angle defects over the facet triangles."""
    t, k, n = P.vertices_frame, P.intrinsic_dim, P.n_vertices
    if k <= 1:
        return np.full(n, 1.0 / n)
    if k == 2:  # turn angle at each vertex, in ring order
        ring = P.boundary
        e = t[ring[np.arange(1, n + 1) % n]] - t[ring]
        ep = e[np.arange(-1, n - 1)]
        turn = np.arctan2(ep[:, 0] * e[:, 1] - ep[:, 1] * e[:, 0], np.einsum("ij,ij->i", ep, e))
        gamma = np.empty(n)
        gamma[ring] = turn / (2 * math.pi)
        return gamma
    if k == 3:  # Girard: the normal cone's solid angle is the angle defect
        S = P.boundary
        face_angles = np.zeros(n)
        for j in range(3):
            a = t[S[:, (j + 1) % 3]] - t[S[:, j]]
            b = t[S[:, (j + 2) % 3]] - t[S[:, j]]
            ang = np.arctan2(np.linalg.norm(np.cross(a, b), axis=1), np.einsum("ij,ij->i", a, b))
            np.add.at(face_angles, S[:, j], ang)
        return (2 * math.pi - face_angles) / (4 * math.pi)
    u = _sphere_nodes(k, tol.sphere_nodes, tol.rng_seed)
    return np.bincount(np.argmax(u @ t.T, axis=1), minlength=n) / tol.sphere_nodes


def _sphere_nodes(k: int, n: int, seed: int) -> np.ndarray:
    if k == 3:
        i = np.arange(n) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i  # Fibonacci lattice
        z = 1.0 - 2.0 * i / n
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, k))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# distances


def _segment_distances(V: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, s) distances from each point of V to each segment [A_j, B_j] (a
    point where A_j = B_j): the nearest point's parameter along B_j - A_j,
    clamped to [0, 1]."""
    E = B - A
    den = np.vecdot(E, E)  # on a zero-length edge t = 0 / 1
    t = np.clip(np.vecdot(V[:, None, :] - A, E) / np.where(den > 0.0, den, 1.0), 0.0, 1.0)
    diff = V[:, None, :] - (A + t[..., None] * E)
    return np.sqrt(np.vecdot(diff, diff))


def _excess(P: Polytope, Q: Polytope) -> float:
    """max over the vertices v of P of d(v, Q)."""
    V = P.vrep
    viol = Q.violation(V)
    if P.ambient_dim == 2:  # every vertex against every edge of Q's boundary ring at once
        A = Q.vrep[Q.boundary]  # a segment is two edges, a point one of zero length
        d = _segment_distances(V, A, A[np.arange(1, len(A) + 1) % len(A)]).min(axis=1)
        return float(np.max(np.where(viol <= 0.0, 0.0, d)))
    if P.ambient_dim == 3 and Q.intrinsic_dim == 3:  # every vertex outside against every facet triangle at once
        V = V[viol > 0.0]
        if not len(V):
            return 0.0
        T = Q.vrep[Q.boundary]  # (f, 3, 3)
        d = _segment_distances(V, T.reshape(-1, 3), T[:, [1, 2, 0]].reshape(-1, 3)).min(axis=1)
        a, e1, e2 = T[:, 0], T[:, 1] - T[:, 0], T[:, 2] - T[:, 0]
        g11, g12, g22 = np.vecdot(e1, e1), np.vecdot(e1, e2), np.vecdot(e2, e2)
        det = g11 * g22 - g12 * g12  # not > 0 on a zero-area triangle: its edges alone count
        ap = V[:, None, :] - a
        r1, r2 = np.vecdot(ap, e1), np.vecdot(ap, e2)
        den = np.where(det > 0.0, det, 1.0)
        u, w = (g22 * r1 - g12 * r2) / den, (g11 * r2 - g12 * r1) / den
        inside = (det > 0.0) & (u >= 0.0) & (w >= 0.0) & (u + w <= 1.0)
        diff = ap - u[..., None] * e1 - w[..., None] * e2
        face = np.where(inside, np.sqrt(np.vecdot(diff, diff)), np.inf).min(axis=1)
        return float(np.minimum(d, face).max())
    diff = V[:, None, :] - Q.vrep
    ub = np.sqrt(np.vecdot(diff, diff).min(axis=1))
    best = 0.0
    for i in np.argsort(-ub, kind="stable"):
        if ub[i] <= best:
            break
        if viol[i] > 0.0:
            best = max(best, float(np.linalg.norm(convexsolve.min_norm_point(Q.vrep - V[i]))))
    return best


def hausdorff(P: Polytope, Q: Polytope) -> float:
    """max(excess(P, Q), excess(Q, P)), with excess(P, Q) the largest d(v, Q)
    over the vertices v of P (d(., Q) is convex, so its maximum over P sits
    at a vertex).

    In the plane the excess is one array computation of every vertex of P
    against every edge of Q's ``boundary`` ring (its segment when k = 1,
    its point when k = 0): t clamped to [0, 1], minimum over edges, maximum
    over vertices.  Above the plane lb <= d(v, Q), with lb the largest H-rep
    violation (every row is a unit normal); a vertex counts 0 only where
    lb <= 0, with no tolerance, in every dimension.  For a full-dimensional
    Q in 3-space d(v, Q) outside Q is the least distance to a triangle of
    Q's ``boundary`` (Qhull's triangulated facets), all in one array
    computation: the foot of the perpendicular when the 2x2 Gram solve puts
    it inside the triangle, else the nearest of its edges by the planar
    segment rule; a zero-area triangle, which Qhull emits on merged facets,
    counts through its edges alone (Ericson, Real-Time Collision Detection,
    2005, 5.1.5).  Otherwise (k < 3 in 3-space, or m >= 4) d(v, Q) <= ub,
    the distance to Q's nearest vertex, and Wolfe's ``min_norm_point`` runs
    in decreasing ub, only where lb > 0, until ub <= the best excess so
    far.  This is exact: a skipped vertex lies in Q or has d(v, Q) <= ub <=
    the best excess.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return max(_excess(P, Q), _excess(Q, P))


def dist_point(P: Polytope, y, tol: Tolerances = DEFAULT_TOL):
    """(d(y, P), projection) via the minimum-norm-point solver on translated
    vertices; the projection satisfies the variational inequality against
    every vertex within 1e-6 u^2, u = ``_unit`` of the vertices and y."""
    y = np.asarray(y, dtype=float)
    z = convexsolve.min_norm_point(P.vrep - y, feas_tol=tol.feas_tol)
    proj = y + z
    gaps = (P.vrep - proj) @ (y - proj)
    u = max(_unit(P.vrep), _unit(y))
    if float(np.max(gaps, initial=0.0)) > 1e-6 * u * u:
        raise convexsolve.SolverStall("projection failed its variational-inequality certificate")
    return float(np.linalg.norm(z)), proj


# ---------------------------------------------------------------------------
# set operations


def same_affine_hull(P: Polytope, Q: Polytope, tol: Tolerances = DEFAULT_TOL) -> bool:
    if P.intrinsic_dim != Q.intrinsic_dim:
        return False
    pts = np.vstack([P.vrep, Q.vrep])
    diffs = pts - pts.mean(axis=0)
    svals = np.linalg.svd(diffs, compute_uv=False)
    return _numerical_rank(svals, tol.rank_tol, strict=False) == P.intrinsic_dim


def intersect(P: Polytope, Q: Polytope, tol: Tolerances = DEFAULT_TOL) -> Optional[Polytope]:
    """P ∩ Q or None when empty.

    The clipping runs in the frame coordinates of the lower-dimensional
    operand, where that operand is full-dimensional; the other operand's
    ambient rows (pinning rows included) are mapped into the frame.  Its
    tolerance is feas_tol u, u = ``_unit`` of both operands' vertices.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    eps = tol.feas_tol * max(_unit(P.vrep), _unit(Q.vrep))
    base, other = (P, Q) if P.intrinsic_dim <= Q.intrinsic_dim else (Q, P)
    if base.intrinsic_dim == 0:
        return base if other.contains(base.vrep[0], eps) else None
    B, o = base.frame.basis, base.frame.origin
    M, q = other.hrep
    V = _clip(base.vertices_frame, list(zip(*base.intrinsic_facets)), zip(M @ B, q - M @ o), eps)
    if V is None:
        return None
    return _build_polytope(base.frame.to_ambient(V), tol, strict_rank=False)


def minkowski_sum(P: Polytope, Q: Polytope, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    sums = (P.vrep[:, None, :] + Q.vrep[None, :, :]).reshape(-1, P.ambient_dim)
    return _build_polytope(sums, tol, strict_rank=False)


def minkowski_interpolate(P: Polytope, Q: Polytope, t: float, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    """Hull of {t*q + (1-t)*p}: the Minkowski geodesic between P (t=0) and Q (t=1)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation parameter must lie in [0, 1]")
    pts = ((1.0 - t) * P.vrep[:, None, :] + t * Q.vrep[None, :, :]).reshape(-1, P.ambient_dim)
    return _build_polytope(pts, tol, strict_rank=False)


def _common_volume(P: Polytope, Q: Polytope, tol: Tolerances) -> float:
    """lambda_k(P ∩ Q) for polytopes sharing an affine hull: 0 when the
    intersection is empty or of lower dimension."""
    pq = intersect(P, Q, tol)
    return volume(pq) if pq is not None and pq.intrinsic_dim == P.intrinsic_dim else 0.0


def sym_diff_volume(P: Polytope, Q: Polytope, tol: Tolerances = DEFAULT_TOL) -> float:
    """lambda_k(P Δ Q) for polytopes sharing an affine hull."""
    if not same_affine_hull(P, Q, tol):
        raise AffineHullMismatch("symmetric-difference volume needs identical affine hulls")
    return volume(P) + volume(Q) - 2.0 * _common_volume(P, Q, tol)


def translate(P: Polytope, v) -> Polytope:
    v = np.asarray(v, dtype=float)
    return Polytope(
        hrep_normals=P.hrep_normals,
        hrep_offsets=P.hrep_offsets + P.hrep_normals @ v,
        vrep=P.vrep + v,
        frame=AffineFrame(origin=P.frame.origin + v, basis=P.frame.basis),
        intrinsic_dim=P.intrinsic_dim,
        boundary=P.boundary,
        volume_cache=P.volume_cache,
    )


def scale(P: Polytope, factor: float) -> Polytope:
    """Scale about the ambient origin by a positive factor."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    vol = None if P.volume_cache is None else P.volume_cache * factor**P.intrinsic_dim
    return Polytope(
        hrep_normals=P.hrep_normals,
        hrep_offsets=P.hrep_offsets * factor,
        vrep=P.vrep * factor,
        frame=AffineFrame(origin=P.frame.origin * factor, basis=P.frame.basis),
        intrinsic_dim=P.intrinsic_dim,
        boundary=P.boundary,
        volume_cache=vol,
    )


def project(P: Polytope, sub: AffineFrame, tol: Tolerances = DEFAULT_TOL) -> Polytope:
    """Orthogonal projection of P onto the affine subspace of ``sub``."""
    if sub.orthonormality_defect() > 1e-10:
        raise ValueError("projection frame must be orthonormal")
    B = sub.basis
    o = sub.origin
    diff = P.vrep - o
    proj = o + (diff @ B) @ B.T if B.shape[1] else np.repeat(o[None, :], P.n_vertices, axis=0)
    return _build_polytope(proj, tol, strict_rank=False)


# ---------------------------------------------------------------------------
# enclosing balls


def _circumball(points) -> tuple:
    """Smallest ball with all ``points`` on its boundary (affinely independent).

    The center lies in the affine hull of the points, so it is solved there.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return None, -1.0
    if len(pts) == 1:
        return pts[0], 0.0
    p0 = pts[0]
    D = pts[1:] - p0  # (j, m)
    rhs = 0.5 * np.einsum("ij,ij->i", D, D)
    G = D @ D.T
    alpha, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    center = p0 + alpha @ D
    r = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return center, r


def _welzl(pts: np.ndarray, rng: np.random.Generator):
    order = rng.permutation(len(pts))
    P = pts[order]

    def mb(n, boundary):
        if n == 0 or len(boundary) == pts.shape[1] + 1:
            return _circumball(boundary)
        c, r = mb(n - 1, boundary)
        p = P[n - 1]
        if c is not None and np.linalg.norm(p - c) <= r * (1 + 1e-12):
            return c, r
        return mb(n - 1, boundary + [p])

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(P) + 100))
    try:
        return mb(len(P), [])
    finally:
        sys.setrecursionlimit(old)


def enclosing_ball(P: Polytope, tol: Tolerances = DEFAULT_TOL):
    """Minimum enclosing ball (center, radius) of the vertices by Welzl's
    randomized recursion, exact in every dimension (Welzl 1991); the radius
    is the largest vertex distance from the center, so the ball encloses."""
    V = P.vrep
    c, _ = _welzl(V, np.random.default_rng(tol.rng_seed))
    return c, float(np.max(np.linalg.norm(V - c, axis=1)))


# ---------------------------------------------------------------------------
# constants


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def volume_lipschitz_constant(diam: float, m: int) -> float:
    """Lipschitz constant of the m-volume on convex subsets of a body of the
    given diameter: 2 m vol(B_m) (diam * sqrt(m / (2(m+1))))^(m-1)."""
    jung = diam * math.sqrt(m / (2.0 * (m + 1.0)))
    try:
        L = 2.0 * m * unit_ball_volume(m) * jung ** (m - 1)
    except OverflowError:
        L = math.inf
    if not math.isfinite(L):
        raise ValueError(f"the {m}-volume Lipschitz constant for diameter {diam:.3g} overflows a double")
    return L
