"""Minimum-norm points of polytopes given by their vertices, and
equality-form LPs by HiGHS.

``min_norm_point`` solves the least-distance problem over a finite vertex
set as one nonnegative least-squares problem (scipy's ``nnls``): the
projection of ``geomkernel.dist_point``, and the vertex distances of
Hausdorff excesses outside the plane and outside full-dimensional bodies in
3-space (lower-dimensional bodies in 3-space, and every body in 4 or more
dimensions), run on the vertices over ``_unit``.  Instances have tens of
vertices, not thousands.  ``equality_lp`` hands a column-wise LP as arrays
straight to the HiGHS bindings that ``scipy.optimize.linprog`` itself
calls, without its per-column Python layer, and runs HiGHS's primal
simplex from the starting basis its caller gives.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.optimize import nnls
from scipy.optimize._highspy import _core as highs  # scipy >= 1.15: an older scipy fails here, at import

from .errors import SolverStall

_LP_OPTIONS = highs.HighsOptions()  # equality_lp's options, set once here and never changed after
_LP_OPTIONS.presolve, _LP_OPTIONS.output_flag = "off", False
_LP_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal.value


def _unit(X) -> float:
    """2^e, e the binary exponent of max |X| (1 when X is all zero): the one
    scale of the package.  Length tolerances are multiples of it and external
    solvers get X over it, exactly, so a body scaled by a power of two gives
    the same answer, scaled."""
    return math.ldexp(1.0, math.frexp(float(np.abs(X).max(initial=0.0)))[1])


def min_norm_point(vertices: Sequence) -> np.ndarray:
    """Minimum-norm point of conv(vertices) by one nonnegative least-squares
    solve (Lawson and Hanson, Solving Least Squares Problems, 1974, ch. 23).

    On V, the n vertices over u = ``_unit``, lambda >= 0 minimizes
    |V^T lambda|^2 + (sum lambda - 1)^2; the point is x = V^T lambda / sum
    lambda, scaled back by u, and sum lambda = 1 / (1 + |x|^2) >= 1 / (1 + m).
    The point is certified by <x, v - x> >= -1e-9 (1 + max|v|^2) for every
    vertex v; failing it, or nnls reaching its cap of 3n iterations, raises
    ``SolverStall``.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    n, m = V.shape
    if n == 0:
        raise ValueError("empty vertex set")
    u = _unit(V)
    V = V / u
    try:
        lam = nnls(np.vstack([V.T, np.ones(n)]), np.append(np.zeros(m), 1.0))[0]
    except RuntimeError as exc:
        raise SolverStall(f"minimum-norm point not found by nnls: {exc}") from exc
    x = lam @ V / lam.sum()
    if (V @ x).min() < x @ x - 1e-9 * (1.0 + np.abs(V).max() ** 2):
        raise SolverStall("minimum-norm point failed its variational-inequality certificate")
    return x * u


def equality_lp(c: np.ndarray, start: np.ndarray, index: np.ndarray, value: np.ndarray, b: np.ndarray,
                basic: Sequence[int] = ()) -> float:
    """Optimal value of min c.x subject to A x = b, x >= 0, A given
    column-wise: column j holds ``value[start[j]:start[j + 1]]`` in rows
    ``index[start[j]:start[j + 1]]``.  The arrays go to HiGHS in one call,
    the array form of ``passModel`` (32-bit starts and indices, no integer
    columns), with no ``HighsLp`` built attribute by attribute; a model
    HiGHS refuses (such as a row index out of range) raises ``SolverStall``
    naming the status.  The columns in ``basic`` start basic, every other
    column and every row at its lower bound, and HiGHS's primal simplex
    runs from that basis (``setBasis``, ``simplex_strategy`` primal) with
    presolve off and its tolerances at their defaults.  Those options are
    the module constant ``_LP_OPTIONS``, built once at import; ``passOptions``
    copies it into each solver, and nothing mutates it.  The basis is passed
    as alien, so HiGHS factorizes it and completes it with row slacks where
    the columns fall short of a nonsingular basis: with ``basic`` empty the
    run starts from the slack basis.  Any model status but optimal raises
    ``SolverStall`` naming it.  The optimum agrees with scipy's
    ``linprog(method="highs")`` to HiGHS's 1e-7, not to the last bit: that
    runs the dual simplex from the slack basis.  The cost comes first, as
    in ``linprog``, because ``beliefs`` calls this as ``linprog``:
    per-layer tracers time the transport LP under that name and count its
    columns from the first argument."""
    n, m = len(c), len(b)
    solver = highs._Highs()
    solver.passOptions(_LP_OPTIONS)
    status = solver.passModel(
        n, m, len(index), highs.MatrixFormat.kColwise.value, highs.ObjSense.kMinimize.value, 0.0,
        c, np.zeros(n), np.full(n, highs.kHighsInf), b, b,
        start[:-1].astype(np.int32), index.astype(np.int32), value, np.zeros(n, np.int32),
    )
    if status != highs.HighsStatus.kOk:
        raise SolverStall(f"LP not passed: HiGHS status {status.name}")
    basis = highs.HighsBasis()  # alien by default
    col_status = [highs.HighsBasisStatus.kLower] * n
    for j in basic:
        col_status[j] = highs.HighsBasisStatus.kBasic
    basis.col_status, basis.row_status = col_status, [highs.HighsBasisStatus.kLower] * m
    status = solver.setBasis(basis)
    if status != highs.HighsStatus.kOk:
        raise SolverStall(f"starting basis not set: HiGHS status {status.name}")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverStall(f"LP not solved: HiGHS model status {solver.modelStatusToString(status)}")
    return solver.getInfo().objective_function_value
