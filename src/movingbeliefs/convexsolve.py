"""Dense linear-programming and minimum-norm subproblem engine.

Everything here is desk-scale by design: a two-phase primal simplex with
Bland's anti-cycling rule (float or end-to-end rational arithmetic) over
free variables with inequality rows, plus Wolfe's minimum-norm-point
algorithm over finite vertex sets.  Instances have tens of rows, not
thousands; determinism beats speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import Infeasible, SolverStall, Unbounded

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FEAS_TOL = 1e-9


def _finite(a: np.ndarray) -> bool:
    if a.dtype != object:
        return bool(np.isfinite(a).all())
    return all(isinstance(v, Fraction) or math.isfinite(v) for v in a.flat)


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . y  subject to  constraint_matrix @ y <= rhs, y free.

    The data are float arrays, or object arrays (e.g. of Fractions) when any
    of the three is given as one, so an exact solve sees the rational data.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        data = (self.objective, self.constraint_matrix, self.rhs)
        dtype = object if any(np.asarray(a).dtype == object for a in data) else float
        c = np.asarray(self.objective, dtype=dtype)
        m = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=dtype))
        q = np.asarray(self.rhs, dtype=dtype)
        if m.size == 0:
            m = m.reshape(0, c.shape[0])
        if m.shape[1] != c.shape[0] or m.shape[0] != q.shape[0]:
            raise ValueError("inconsistent LP dimensions")
        if not all(_finite(a) for a in (c, m, q)):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", m)
        object.__setattr__(self, "rhs", q)


@dataclass(frozen=True, eq=False)
class LpResult:
    """Solver outcome.  ``point``/``value`` are floats; the exact rational
    counterparts are populated when the exact flag was set."""

    status: str
    value: float
    point: np.ndarray
    basis: tuple
    exact_value: Optional[Fraction] = None
    exact_point: Optional[tuple] = None


def _pivot(tab, basis, row, col, den):
    """Pivot on tab[row][col], every row of ``tab`` included; return the new
    divisor.  ``den`` None means float rows: the pivot row is normalized and
    eliminated from the others.  Otherwise ``tab`` is an integer tableau
    whose rows share the divisor ``den`` (each is ``den`` times its rational
    counterpart): the pivot row stays, every other row becomes
    (row * piv - row[col] * pivot row) / den, and |piv| is the next divisor
    (Edmonds 1967; Bareiss 1968).  The division is exact because each entry
    is a minor of the initial integer tableau, which dropping a row does not
    change; a negative pivot negates the tableau so that divisors stay
    positive and every sign test reads the rational sign."""
    piv = tab[row][col]
    basis[row] = col
    if den is None:
        tab[row] = [v / piv for v in tab[row]]
        prow = tab[row]
        for i, r in enumerate(tab):
            if i != row and (f := r[col]) != 0:
                tab[i] = [a - f * b for a, b in zip(r, prow)]
        return None
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row:
            f = r[col]
            tab[i] = [(a * piv - f * b) // den for a, b in zip(r, prow)]
    if piv < 0:
        tab[:] = [[-v for v in r] for r in tab]
    return abs(piv)


def _bland(tab, basis, allowed, tol, den):
    """Primal simplex iterations with Bland's rule on tableau ``tab`` (rows of
    [A | b], then the reduced-cost row [z | -obj]).  Mutates in place and
    returns (status, divisor); ratios of an integer tableau are Fractions."""
    cost = tab[-1]
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < -tol:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, den
        leave = -1
        best = None
        for i in range(len(tab) - 1):
            a = tab[i][enter]
            if a > tol:
                ratio = tab[i][-1] / a if den is None else Fraction(tab[i][-1], a)
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, den
        den = _pivot(tab, basis, leave, enter, den)
        cost = tab[-1]


def _solve_inequality_lp(c, M, q, tol, den):
    """min c.y s.t. M y <= q with free y, in floats (``den`` None) or on an
    integer tableau (``den`` 1; c, M and q integers, see ``lp_solve``).

    Returns (status, y, basis); y holds Fractions on the integer tableau.
    """
    m = len(c)
    p = len(q)
    zero = 0.0 if den is None else 0
    if p == 0:
        return (OPTIMAL if not any(c) else UNBOUNDED), [zero] * m, ()

    # columns: y+ (m) | y- (m) | slack (p) | artificials (appended as needed)
    ncols = 2 * m + p
    tab = []
    basis = []
    art_cols = []
    for i in range(p):
        row = list(M[i]) + [-v for v in M[i]] + [zero] * p
        rhs = q[i]
        row[2 * m + i] = zero + 1
        if rhs < zero:
            row = [-v for v in row]
            rhs = -rhs
        tab.append(row + [rhs])
        if row[2 * m + i] > zero:  # slack usable as initial basic
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
        ext = [zero] * len(art_cols) + [row.pop()]
        tab[i] = row + ext
        if basis[i] >= ncols:
            tab[i][basis[i]] = zero + 1

    if art_cols:
        cost = [zero] * (ntot + 1)
        for col in art_cols:
            cost[col] = zero + 1
        for i in range(p):
            if basis[i] in art_cols:
                f = cost[basis[i]]
                cost = [a - f * b for a, b in zip(cost, tab[i])]
        tab.append(cost)
        status, den = _bland(tab, basis, range(ntot), tol, den)
        assert status == OPTIMAL  # phase 1 is always bounded
        cost = tab.pop()
        scale = max((abs(v) for v in (list(q) + [zero])), default=zero)
        if -cost[-1] > tol * (1 + scale):
            return INFEASIBLE, [zero] * m, ()
        # Drive leftover artificials out of the basis; drop redundant rows.
        for i in range(p - 1, -1, -1):
            if basis[i] in art_cols:
                piv = -1
                for j in range(ncols):
                    if abs(tab[i][j]) > tol:
                        piv = j
                        break
                if piv >= 0:
                    den = _pivot(tab, basis, i, piv, den)
                else:
                    tab.pop(i)
                    basis.pop(i)

    # the reduced costs, scaled by the divisor on an integer tableau
    cost = list(c) + [-v for v in c] + [zero] * (len(tab[0]) - 2 * m - 1) + [zero]
    if den is not None:
        cost = [den * v for v in cost]
    for i in range(len(tab)):
        f = cost[basis[i]] if den is None else cost[basis[i]] // den
        if f != 0:
            cost = [a - f * b for a, b in zip(cost, tab[i])]
    tab.append(cost)
    status, den = _bland(tab, basis, range(ncols), tol, den)
    tab.pop()
    if status == UNBOUNDED:
        return UNBOUNDED, [zero] * m, tuple(basis)

    z = [zero] * len(tab[0])
    for i, b in enumerate(basis):
        z[b] = tab[i][-1] if den is None else Fraction(tab[i][-1], den)
    return OPTIMAL, [z[j] - z[m + j] for j in range(m)], tuple(basis)


def _integers(rows):
    """Rows of Python ints, floats or Fractions times their least common
    denominator: Python ints."""
    rows = [[v.as_integer_ratio() for v in r] for r in rows]
    lcd = math.lcm(*(d for r in rows for _, d in r))
    return [[n * (lcd // d) for n, d in r] for r in rows]


def lp_solve(prob: LpProblem, exact: bool = False, feas_tol: float = _FEAS_TOL) -> LpResult:
    """Solve ``prob`` by two-phase simplex with Bland's rule.

    With ``exact`` the pivots run on an integer tableau and the exact optimum
    is reported alongside its float rendering.  The constraint rows are
    scaled by one common denominator and the objective by its own; positive
    scalings of all rows, of the objective and (for the slack columns, whose
    coefficient stays 1) of columns change no sign and scale every ratio of a
    ratio test alike, so Bland's rule takes the pivots, and reaches the
    basis, of the same solve in rational arithmetic.  Integer pivoting keeps
    every entry a minor of the scaled data: the tableau holds Python ints of
    a bounded size and never a Fraction; only the ratio test and the
    returned point divide.
    """
    if exact:
        c = [Fraction(v) for v in prob.objective.tolist()]
        A = _integers([row + [b] for row, b in zip(prob.constraint_matrix.tolist(), prob.rhs.tolist())])
        status, y, basis = _solve_inequality_lp(
            _integers([c])[0], [r[:-1] for r in A], [r[-1] for r in A], 0, 1)
        y = [Fraction(v) for v in y]
        value = sum(ci * yi for ci, yi in zip(c, y)) if status == OPTIMAL else Fraction(0)
        return LpResult(
            status=status,
            value=float(value),
            point=np.array([float(v) for v in y]),
            basis=basis,
            exact_value=value if status == OPTIMAL else None,
            exact_point=tuple(y) if status == OPTIMAL else None,
        )
    c = np.asarray(prob.objective, dtype=float).tolist()
    M = np.asarray(prob.constraint_matrix, dtype=float).tolist()
    q = np.asarray(prob.rhs, dtype=float).tolist()
    status, y, basis = _solve_inequality_lp(c, M, q, feas_tol, None)
    value = sum(ci * yi for ci, yi in zip(c, y)) if status == OPTIMAL else 0.0
    return LpResult(status=status, value=float(value), point=np.array(y, dtype=float), basis=basis)


def bounding_box(M, q, exact: bool = False, feas_tol: float = _FEAS_TOL):
    """Per-coordinate bounds (lo, hi) of {y : M y <= q} from 2 * dim LPs.

    Raises ``Infeasible`` for an empty system and ``Unbounded`` along the
    first coordinate direction it recedes in; ``exact`` runs the LPs in
    rational arithmetic.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    m = M.shape[1]
    lo = np.empty(m)
    hi = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        res_min = lp_solve(LpProblem(e, M, q), exact=exact, feas_tol=feas_tol)
        if res_min.status == INFEASIBLE:
            raise Infeasible("inequality system has no solution")
        if res_min.status == UNBOUNDED:
            raise Unbounded(f"recession direction along -e_{i}")
        res_max = lp_solve(LpProblem(-e, M, q), exact=exact, feas_tol=feas_tol)
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

