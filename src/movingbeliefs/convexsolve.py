"""Dense linear-programming and minimum-norm subproblem engine.

Everything here is desk-scale by design: a two-phase primal simplex with
Bland's anti-cycling rule in floats over free variables with inequality rows
(the bounding boxes of ``from_hrep`` and of linear lower levels), plus
Wolfe's minimum-norm-point algorithm over finite vertex sets.  Instances have
tens of rows, not thousands; determinism beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Infeasible, SolverStall, Unbounded

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . y  subject to  constraint_matrix @ y <= rhs, y free."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        m = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        q = np.asarray(self.rhs, dtype=float)
        if m.size == 0:
            m = m.reshape(0, c.shape[0])
        if m.shape[1] != c.shape[0] or m.shape[0] != q.shape[0]:
            raise ValueError("inconsistent LP dimensions")
        if not all(np.isfinite(a).all() for a in (c, m, q)):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", m)
        object.__setattr__(self, "rhs", q)


@dataclass(frozen=True, eq=False)
class LpResult:
    """Solver outcome."""

    status: str
    value: float
    point: np.ndarray
    basis: tuple


def _pivot(tab, basis, row, col):
    """Pivot on tab[row][col], every row of ``tab`` included: the pivot row
    is normalized and eliminated from the others."""
    piv = tab[row][col]
    basis[row] = col
    tab[row] = [v / piv for v in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and (f := r[col]) != 0:
            tab[i] = [a - f * b for a, b in zip(r, prow)]


def _bland(tab, basis, allowed, tol):
    """Primal simplex iterations with Bland's rule on tableau ``tab`` (rows of
    [A | b], then the reduced-cost row [z | -obj]).  Mutates in place and
    returns the status."""
    cost = tab[-1]
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(len(tab) - 1):
            a = tab[i][enter]
            if a > tol:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)
        cost = tab[-1]


def _solve_inequality_lp(c, M, q, tol):
    """min c.y s.t. M y <= q with free y, on lists of floats.

    Returns (status, y, basis).
    """
    m = len(c)
    p = len(q)
    if p == 0:
        return (OPTIMAL if not any(c) else UNBOUNDED), [0.0] * m, ()

    # columns: y+ (m) | y- (m) | slack (p) | artificials (appended as needed)
    ncols = 2 * m + p
    tab = []
    basis = []
    art_cols = []
    for i in range(p):
        row = list(M[i]) + [-v for v in M[i]] + [0.0] * p
        rhs = q[i]
        row[2 * m + i] = 1.0
        if rhs < 0.0:
            row = [-v for v in row]
            rhs = -rhs
        tab.append(row + [rhs])
        if row[2 * m + i] > 0.0:  # slack usable as initial basic
            basis.append(2 * m + i)
        else:
            basis.append(-1)
    need_art = [i for i in range(p) if basis[i] < 0]
    for k, i in enumerate(need_art):
        col = ncols + k
        art_cols.append(col)
        basis[i] = col
    ntot = ncols + len(art_cols)
    for i in range(p):
        row = tab[i]
        ext = [0.0] * len(art_cols) + [row.pop()]
        tab[i] = row + ext
        if basis[i] >= ncols:
            tab[i][basis[i]] = 1.0

    if art_cols:
        cost = [0.0] * (ntot + 1)
        for col in art_cols:
            cost[col] = 1.0
        for i in range(p):
            if basis[i] in art_cols:
                f = cost[basis[i]]
                cost = [a - f * b for a, b in zip(cost, tab[i])]
        tab.append(cost)
        status = _bland(tab, basis, range(ntot), tol)
        assert status == OPTIMAL  # phase 1 is always bounded
        cost = tab.pop()
        scale = max((abs(v) for v in (list(q) + [0.0])), default=0.0)
        if -cost[-1] > tol * (1 + scale):
            return INFEASIBLE, [0.0] * m, ()
        # Drive leftover artificials out of the basis.  Every row owns a slack
        # column, so its real part is never zero: pivot on its first entry
        # above tol, or else on its largest.
        for i in range(p - 1, -1, -1):
            if basis[i] in art_cols:
                real = [abs(v) for v in tab[i][:ncols]]
                _pivot(tab, basis, i, next((j for j, v in enumerate(real) if v > tol), real.index(max(real))))

    cost = list(c) + [-v for v in c] + [0.0] * (len(tab[0]) - 2 * m - 1) + [0.0]
    for i in range(len(tab)):
        f = cost[basis[i]]
        if f != 0:
            cost = [a - f * b for a, b in zip(cost, tab[i])]
    tab.append(cost)
    status = _bland(tab, basis, range(ncols), tol)
    tab.pop()
    if status == UNBOUNDED:
        return UNBOUNDED, [0.0] * m, tuple(basis)

    z = [0.0] * len(tab[0])
    for i, b in enumerate(basis):
        z[b] = tab[i][-1]
    return OPTIMAL, [z[j] - z[m + j] for j in range(m)], tuple(basis)


def lp_solve(prob: LpProblem, feas_tol: float = _FEAS_TOL) -> LpResult:
    """Solve ``prob`` by two-phase simplex with Bland's rule in floats."""
    c = prob.objective.tolist()
    status, y, basis = _solve_inequality_lp(c, prob.constraint_matrix.tolist(), prob.rhs.tolist(), feas_tol)
    value = sum(ci * yi for ci, yi in zip(c, y)) if status == OPTIMAL else 0.0
    return LpResult(status=status, value=float(value), point=np.array(y, dtype=float), basis=basis)


def bounding_box(M, q, feas_tol: float = _FEAS_TOL):
    """Per-coordinate bounds (lo, hi) of {y : M y <= q} from 2 * dim LPs.

    Raises ``Infeasible`` for an empty system and ``Unbounded`` along the
    first coordinate direction it recedes in.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    m = M.shape[1]
    lo = np.empty(m)
    hi = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        res_min = lp_solve(LpProblem(e, M, q), feas_tol=feas_tol)
        if res_min.status == INFEASIBLE:
            raise Infeasible("inequality system has no solution")
        if res_min.status == UNBOUNDED:
            raise Unbounded(f"recession direction along -e_{i}")
        res_max = lp_solve(LpProblem(-e, M, q), feas_tol=feas_tol)
        if res_max.status == UNBOUNDED:
            raise Unbounded(f"recession direction along +e_{i}")
        lo[i] = res_min.value
        hi[i] = -res_max.value
    return lo, hi


def min_norm_point(vertices: Sequence, feas_tol: float = _FEAS_TOL) -> np.ndarray:
    """Minimum-norm point of conv(vertices) by Wolfe's algorithm.

    Finite termination is certified by the optimality condition
    <x, v - x> >= -tol for every vertex v; hitting the iteration cap of
    50 max(n, 2) major steps (n vertices) without the certificate raises
    ``SolverStall``.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    n = V.shape[0]
    if n == 0:
        raise ValueError("empty vertex set")
    norms = np.einsum("ij,ij->i", V, V)
    idx = [int(np.argmin(norms))]
    lam = np.array([1.0])
    x = V[idx[0]].copy()
    scale = 1.0 + float(np.max(np.abs(V))) ** 2
    for _ in range(50 * max(n, 2)):
        scores = V @ x
        j = int(np.argmin(scores))
        if scores[j] >= x @ x - feas_tol * scale:
            return x
        if j in idx:
            return x  # numerically optimal within the current corral
        idx.append(j)
        lam = np.append(lam, 0.0)
        while True:
            S = V[idx]
            k = len(idx)
            G = np.empty((k + 1, k + 1))
            G[:k, :k] = 2.0 * (S @ S.T)
            G[:k, k] = 1.0
            G[k, :k] = 1.0
            G[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol = np.linalg.lstsq(G, rhs, rcond=None)[0]
            alpha = sol[:k]
            if np.all(alpha >= -1e-12):
                lam = np.clip(alpha, 0.0, None)
                lam /= lam.sum()
                x = lam @ S
                break
            mask = alpha < lam - 1e-15
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(mask & (lam - alpha > 0), lam / (lam - alpha), np.inf)
            theta = float(np.min(steps))
            lam = (1.0 - theta) * lam + theta * alpha
            keep = lam > 1e-12
            if keep.all():
                lam[np.argmin(lam)] = 0.0
                keep = lam > 0
            idx = [i for i, k_ in zip(idx, keep) if k_]
            lam = lam[keep]
            lam /= lam.sum()
            x = lam @ V[idx]
    scores = V @ x
    if float(np.min(scores)) >= x @ x - 1e-6 * scale:
        return x
    raise SolverStall("minimum-norm point did not converge within the iteration cap")

