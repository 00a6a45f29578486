"""Minimum-norm points of polytopes given by their vertices, and
equality-form LPs by HiGHS.

Wolfe's minimum-norm-point algorithm over finite vertex sets: the
projection of ``geomkernel.dist_point``, and the vertex distances of
Hausdorff excesses outside the plane and outside full-dimensional bodies in
3-space (lower-dimensional bodies in 3-space, and every body in 4 or more
dimensions), run on the vertices over ``_unit``.  Instances have tens of
vertices, not thousands; determinism beats speed.  ``equality_lp`` hands a
column-wise LP as arrays straight to the HiGHS bindings that
``scipy.optimize.linprog`` itself calls, without its per-column Python
layer.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.optimize._highspy import _core as highs  # scipy >= 1.15: an older scipy fails here, at import

from .errors import SolverStall

_FEAS_TOL = 1e-9


def _unit(X) -> float:
    """2^e, e the binary exponent of max |X| (1 when X is all zero): the one
    scale of the package.  Length tolerances are multiples of it and external
    solvers get X over it, exactly, so a body scaled by a power of two gives
    the same answer, scaled."""
    return math.ldexp(1.0, math.frexp(float(np.abs(X).max(initial=0.0)))[1])


def min_norm_point(vertices: Sequence, feas_tol: float = _FEAS_TOL) -> np.ndarray:
    """Minimum-norm point of conv(vertices) by Wolfe's algorithm.

    It runs on the vertices over u = ``_unit``, its point scaled back by u.
    Finite termination is certified by the optimality condition
    <x, v - x> >= -tol for every vertex v; hitting the iteration cap of
    50 max(n, 2) major steps (n vertices) without the certificate raises
    ``SolverStall``.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    n = V.shape[0]
    if n == 0:
        raise ValueError("empty vertex set")
    u = _unit(V)
    V = V / u
    norms = np.einsum("ij,ij->i", V, V)
    idx = [int(np.argmin(norms))]
    lam = np.array([1.0])
    x = V[idx[0]].copy()
    scale = 1.0 + float(np.max(np.abs(V))) ** 2
    for _ in range(50 * max(n, 2)):
        scores = V @ x
        j = int(np.argmin(scores))
        if scores[j] >= x @ x - feas_tol * scale:
            return x * u
        if j in idx:
            return x * u  # numerically optimal within the current corral
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
        return x * u
    raise SolverStall("minimum-norm point did not converge within the iteration cap")


def equality_lp(c: np.ndarray, start: np.ndarray, index: np.ndarray, value: np.ndarray, b: np.ndarray) -> float:
    """Optimal value of min c.x subject to A x = b, x >= 0, A given
    column-wise: column j holds ``value[start[j]:start[j + 1]]`` in rows
    ``index[start[j]:start[j + 1]]``.  The arrays go to HiGHS in one call,
    the array form of ``passModel`` (32-bit starts and indices, no integer
    columns), with no ``HighsLp`` built attribute by attribute; a model
    HiGHS refuses (such as a row index out of range) raises ``SolverStall``
    naming the status.  HiGHS runs with presolve off and every other option
    at its default, the run ``linprog(method="highs", options={"presolve":
    False})`` makes, so the optimum is the same float; any model status but
    optimal raises ``SolverStall`` naming it.  The cost comes first, as in
    ``linprog``, because ``beliefs`` calls this as ``linprog``: per-layer
    tracers time the transport LP under that name and count its columns
    from the first argument."""
    n = len(c)
    options = highs.HighsOptions()
    options.presolve, options.output_flag = "off", False
    solver = highs._Highs()
    solver.passOptions(options)
    status = solver.passModel(
        n, len(b), len(index), highs.MatrixFormat.kColwise.value, highs.ObjSense.kMinimize.value, 0.0,
        c, np.zeros(n), np.full(n, highs.kHighsInf), b, b,
        start[:-1].astype(np.int32), index.astype(np.int32), value, np.zeros(n, np.int32),
    )
    if status != highs.HighsStatus.kOk:
        raise SolverStall(f"LP not passed: HiGHS status {status.name}")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverStall(f"LP not solved: HiGHS model status {solver.modelStatusToString(status)}")
    return solver.getInfo().objective_function_value
