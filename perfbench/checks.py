"""Output checks computed apart from movingbeliefs.

Every function here uses numpy/scipy only.  Each ``check_*`` function returns
a list of failure messages (empty when the result is right), so that the
self-test can feed it a perturbed result and see it fail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, Delaunay

# Hit-and-run inflation: spread of the Monte Carlo estimate across chain
# seeds divided by the i.i.d. standard error sd_f / sqrt(n), measured on the
# expect4d workload's polytopes (README.md, "Monte Carlo tolerance").
MC_INFLATION = 1.7
MC_Z = 5.0


# ---------------------------------------------------------------------------
# planar geometry


def ccw_hull(points: np.ndarray) -> np.ndarray:
    """Vertices of the planar convex hull in counterclockwise order."""
    pts = np.asarray(points, dtype=float)
    return pts[ConvexHull(pts).vertices]


def shoelace(poly: np.ndarray):
    """(area, centroid) of a counterclockwise polygon."""
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return float(area), np.array([cx, cy])


def _dist_points_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance of each point to a counterclockwise convex polygon (0 inside)."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    e = b - a  # (k, 2)
    d = pts[:, None, :] - a[None, :, :]  # (n, k, 2)
    ee = np.einsum("kj,kj->k", e, e)
    t = np.clip(np.einsum("nkj,kj->nk", d, e) / ee, 0.0, 1.0)
    foot = a[None] + t[..., None] * e[None]
    seg = np.linalg.norm(pts[:, None, :] - foot, axis=-1).min(axis=1)
    cross = e[None, :, 0] * d[..., 1] - e[None, :, 1] * d[..., 0]
    inside = np.all(cross >= 0.0, axis=1)
    return np.where(inside, 0.0, seg)


def hausdorff_2d(p: np.ndarray, q: np.ndarray) -> float:
    """Hausdorff distance of two counterclockwise convex polygons: the
    excess of one over the other is attained at a vertex."""
    return float(max(_dist_points_polygon(p, q).max(), _dist_points_polygon(q, p).max()))


def steiner_2d(poly: np.ndarray) -> np.ndarray:
    """Steiner point sum_v gamma_v v, gamma_v = turn angle at v over 2 pi."""
    e_in = poly - np.roll(poly, 1, axis=0)
    e_out = np.roll(poly, -1, axis=0) - poly
    turn = np.arctan2(
        e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0],
        np.einsum("ij,ij->i", e_in, e_out),
    )
    return (turn[:, None] * poly).sum(axis=0) / (2.0 * math.pi)


def check_body_kernels(verts: np.ndarray, area: float, steiner) -> list:
    """Program area and Steiner point of a planar polytope against the
    shoelace formula and the external-angle formula."""
    poly = ccw_hull(verts)
    ref_area, _ = shoelace(poly)
    fails = []
    if abs(area - ref_area) > 1e-9 * max(1.0, ref_area):
        fails.append(f"area {area!r} != shoelace {ref_area!r}")
    err = float(np.max(np.abs(np.asarray(steiner) - steiner_2d(poly))))
    if err > 1e-9:
        fails.append(f"Steiner point off the external-angle formula by {err:.3e}")
    return fails


def check_body_trial_3d(tr: dict) -> list:
    """Properties the 3-D body maps must have on one trial: volumes equal
    scipy's hull volume; Hausdorff distance is symmetric; Minkowski
    interpolation is a geodesic; diameter is 2-Lipschitz; the symmetric
    difference sits between |vol A - vol B| and L d_H; Jung's bound holds
    for the enclosing ball."""
    A, B, d_ab = tr["A"], tr["B"], tr["d_ab"]
    fails = []
    for P, vol in zip((A, B), tr["vol"]):
        ref = ConvexHull(P.vrep).volume
        if abs(vol - ref) > 1e-9 * max(1.0, ref):
            fails.append(f"3-D volume {vol!r} != scipy hull volume {ref!r}")
    if abs(d_ab - tr["d_ba"]) > 1e-9:
        fails.append("3-D Hausdorff distance is not symmetric")
    if tr["d_geo"] > (tr["s"] - tr["t"]) * d_ab + 1e-9:
        fails.append("Minkowski interpolation is not a Hausdorff geodesic")
    if abs(tr["diam"][0] - tr["diam"][1]) > 2.0 * d_ab + 1e-9:
        fails.append("diameter is not 2-Lipschitz")
    m = 3
    jung = math.sqrt(m / (2.0 * (m + 1.0)))
    lip = 2.0 * m * math.pi ** (m / 2) / math.gamma(m / 2 + 1) * (math.sqrt(m) * jung) ** (m - 1)
    if tr["sym"] < abs(tr["vol"][0] - tr["vol"][1]) - 1e-12 or tr["sym"] > lip * d_ab + 1e-7:
        fails.append("symmetric-difference volume outside [|vol A - vol B|, L d_H]")
    diam_a = tr["diam"][0]
    if not 0.5 * diam_a - 1e-9 <= tr["radius"] <= jung * diam_a + 1e-9:
        fails.append("enclosing-ball radius outside [diam/2, Jung's bound]")
    return fails


def check_hausdorff_2d(p_verts, q_verts, value: float) -> list:
    ref = hausdorff_2d(ccw_hull(p_verts), ccw_hull(q_verts))
    if abs(value - ref) > 1e-9:
        return [f"Hausdorff {value!r} != independent {ref!r}"]
    return []


def check_report_margins(passed: bool, margins: dict) -> list:
    """The body suite checks theorems, so no margin may be negative."""
    fails = []
    if not passed:
        fails.append("suite reported a violation")
    for name, margin in margins.items():
        if not margin >= 0.0:
            fails.append(f"negative margin {name}={margin!r}")
    return fails


# ---------------------------------------------------------------------------
# transport


def check_transport(p_pts, q_pts, shift, results: dict, tv: float) -> list:
    """``results`` maps resolution -> (w1, error bound)."""
    fails = []
    p_poly, q_poly = ccw_hull(p_pts), ccw_hull(q_pts)
    _, cp = shoelace(p_poly)
    _, cq = shoelace(q_poly)
    mean_gap = float(np.linalg.norm(cp - cq))
    both = np.vstack([p_poly, q_poly])
    diam_y = float(np.linalg.norm(both.max(axis=0) - both.min(axis=0)))
    if not 0.0 <= tv <= 2.0:
        fails.append(f"total variation {tv!r} outside [0, 2]")
    for res, (w1, err) in results.items():
        if shift is not None and abs(w1 - float(np.linalg.norm(shift))) > err:
            fails.append(f"res {res}: translate W1 {w1!r} misses |shift| by more than {err!r}")
        if mean_gap > w1 + err + 1e-12:
            fails.append(f"res {res}: |E_P y - E_Q y| = {mean_gap!r} exceeds W1 + err")
        if w1 > 0.5 * diam_y * tv + err + 1e-12:
            fails.append(f"res {res}: W1 {w1!r} breaks W1 <= diam(Y)/2 * TV")
    return fails


# ---------------------------------------------------------------------------
# sweeps and linear lower levels


def trapezoid_phi(x):
    x = np.asarray(x, dtype=float)
    return (3.0 - np.sqrt(x)) / (6.0 - 3.0 * x**0.25)


def qmap_phi(x, q: float):
    x = np.asarray(x, dtype=float)
    return (2.0 * x ** (q - 1.0) + 3.0) / (6.0 + 3.0 * x ** (q - 1.0))


def check_closed_form(phi, ref, label: str) -> list:
    err = float(np.max(np.abs(np.asarray(phi) - np.asarray(ref))))
    if not err <= 1e-9:
        return [f"{label}: max |phi - closed form| = {err:.3e}"]
    return []


def lower_level_optimum(A, B, b, c, x) -> float:
    """min c.y s.t. B y <= b - A x, solved by scipy's HiGHS."""
    res = linprog(c, A_ub=B, b_ub=b - A @ np.atleast_1d(x), bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_face(A, B, b, c, x, verts: np.ndarray, opt: float, eps: float = 0.0) -> list:
    """Face vertices are feasible; optimal faces attain ``opt`` and
    eps-argmin vertices stay within ``opt + eps``."""
    fails = []
    slack = B @ verts.T - (b - A @ np.atleast_1d(x))[:, None]
    if float(slack.max()) > 1e-7:
        fails.append(f"x={x}: face vertex infeasible by {float(slack.max()):.3e}")
    vals = verts @ c
    if eps == 0.0:
        if float(np.max(np.abs(vals - opt))) > 1e-7:
            fails.append(f"x={x}: face vertex misses the optimum {opt!r}")
    elif float(vals.max()) > opt + eps + 1e-7 or float(vals.min()) < opt - 1e-7:
        fails.append(f"x={x}: eps-set vertex outside [opt, opt + eps]")
    return fails


def chebyshev_radius(A, B, b, x) -> float:
    """Radius of the largest ball inside the fiber {y : B y <= b - A x}."""
    rhs = b - A @ np.atleast_1d(x)
    norms = np.linalg.norm(B, axis=1)
    keep = norms > 0
    if np.any(rhs[~keep] < 0):
        return -1.0
    m = B.shape[1]
    res = linprog(
        np.r_[np.zeros(m), -1.0],
        A_ub=np.column_stack([B[keep], norms[keep]]),
        b_ub=rhs[keep],
        bounds=[(None, None)] * m + [(0, None)],
        method="highs",
    )
    return float(-res.fun) if res.status == 0 else -1.0


def full_dimensional(verts: np.ndarray) -> bool:
    return verts.shape[0] > verts.shape[1] and np.linalg.matrix_rank(verts - verts.mean(axis=0)) == verts.shape[1]


def same_vertex_set(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    if u.shape != v.shape:
        return False
    d = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1)
    return bool(np.all(d.min(axis=1) <= tol) and np.all(d.min(axis=0) <= tol))


# ---------------------------------------------------------------------------
# uniform-law moments


def simplex_moments(points: np.ndarray):
    """(volume, E[y], E[y y^T]) of the uniform law on conv(points), from a
    scipy Delaunay triangulation and the closed-form simplex moments
    E[y] = mean(v), E[y y^T] = (sum v v^T + (sum v)(sum v)^T)/((k+1)(k+2))."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[1]
    simp = pts[Delaunay(pts).simplices]  # (s, k+1, k)
    vol = np.abs(np.linalg.det(simp[:, 1:] - simp[:, :1])) / math.factorial(k)
    s1 = simp.sum(axis=1)
    m1 = s1 / (k + 1)
    m2 = (np.einsum("sij,sik->sjk", simp, simp) + np.einsum("sj,sk->sjk", s1, s1)) / (
        (k + 1) * (k + 2)
    )
    total = vol.sum()
    return float(total), (vol @ m1) / total, np.einsum("s,sjk->jk", vol, m2) / total


def check_mean(value, ref, scale: float, label: str) -> list:
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(ref))))
    if not err <= 1e-9 * max(1.0, scale):
        return [f"{label}: off the independent value by {err:.3e}"]
    return []


def check_mc(estimate: float, exact: float, variance: float, n: int) -> list:
    tol = MC_Z * MC_INFLATION * math.sqrt(max(variance, 0.0) / n)
    if not abs(estimate - exact) <= tol:
        return [f"Monte Carlo {estimate!r} off the exact {exact!r} by more than {tol:.3e}"]
    return []
