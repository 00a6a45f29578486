"""The four benchmark workloads.

Each workload draws a fixed pool of inputs from the run's seed at set-up;
operation ``i`` uses pool entry ``i % POOL``.  Every operation has the same
make-up (same sizes, same calls, same resolutions), so operation times are
samples of one cost distribution.  ``op`` returns the program's outputs;
``check`` (outside the timed region) tests them with the independent code in
checks.py and returns failure messages.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

import checks

from movingbeliefs import beliefs as bl
from movingbeliefs import cli
from movingbeliefs import geomkernel as gk
from movingbeliefs import probe
from movingbeliefs import svmaps as sv

POOL = 64


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: str):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.scratch = scratch
        self.pool = [self.make_input(k) for k in range(POOL)]

    def make_input(self, k: int):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list:
        raise NotImplementedError

    def final_check(self) -> list:
        return []


# ---------------------------------------------------------------------------
# bodies: the randomized convex-body suite in the plane and in 3-space


class Bodies(Workload):
    """The body suite in the plane, plus the same trials in 3-space minus the
    Steiner point: its 20 000-node quadrature fails the containment check on
    near-flat tetrahedra, which appear on some seeds (see CHANGES.md)."""

    name = "bodies"
    SAMPLES_2D = 20
    TRIALS_3D = 2
    POINTS_3D = (6, 7)  # six points per 3-D body: a steadier cost per operation

    def make_input(self, k):
        return int(self.rng.integers(0, 2**31)), int(self.rng.integers(0, 2**31))

    def op(self, i):
        seed2, seed3 = self.pool[i % POOL]
        report = probe.verify_body_lemmas(samples=self.SAMPLES_2D, seed=seed2, m=2)
        rng = np.random.default_rng(seed3)
        trials = []
        for _ in range(self.TRIALS_3D):
            A = probe.random_polytope(rng, 3, n_points=self.POINTS_3D)
            B = probe.random_polytope(rng, 3, n_points=self.POINTS_3D)
            t, s = sorted(rng.random(2))
            trials.append({
                "A": A, "B": B, "t": t, "s": s,
                "d_ab": gk.hausdorff(A, B), "d_ba": gk.hausdorff(B, A),
                "d_geo": gk.hausdorff(gk.minkowski_interpolate(A, B, t), gk.minkowski_interpolate(A, B, s)),
                "sym": gk.sym_diff_volume(A, B),
                "vol": (gk.volume(A), gk.volume(B)),
                "diam": (gk.diameter(A), gk.diameter(B)),
                "radius": gk.enclosing_ball(A)[1],
            })
        return report, trials

    def check(self, i, out):
        report, trials = out
        margins = {c.name: c.margin for c in report.checks}
        fails = checks.check_report_margins(report.passed, margins)
        if len(margins) != 8 or report.metadata.get("samples") != self.SAMPLES_2D:
            fails.append("the planar suite ran a different set of checks")
        for tr in trials:
            fails += checks.check_body_trial_3d(tr)
        return fails

    def final_check(self):
        """Recompute area, Hausdorff distance and Steiner point of the planar
        polytopes of the first two pool entries."""
        fails = []
        for k in range(2):
            bodies = []
            with _capturing(probe, "random_polytope", bodies):
                probe.verify_body_lemmas(samples=self.SAMPLES_2D, seed=self.pool[k][0], m=2)
            for P in bodies:
                fails += checks.check_body_kernels(P.vrep, gk.volume(P), gk.steiner_point(P))
            for A, B in zip(bodies[0::2], bodies[1::2]):
                fails += checks.check_hausdorff_2d(A.vrep, B.vrep, gk.hausdorff(A, B))
        return fails


@contextlib.contextmanager
def _capturing(module, attr, sink):
    fn = getattr(module, attr)

    def record(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, record)
    try:
        yield
    finally:
        setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# transport: W1 and TV between uniform laws on planar polygons


class Transport(Workload):
    name = "transport"
    AREA = 0.05
    RESOLUTIONS = (0.075, 0.035)

    def _polygon(self):
        """A near-regular octagon of area AREA, so that every pair covers
        about the same number of grid cells."""
        ang = np.arange(8) * np.pi / 4 + self.rng.uniform(-0.15, 0.15, 8) + self.rng.uniform(0, 2 * np.pi)
        rad = self.rng.uniform(0.9, 1.0, 8)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        area, _ = checks.shoelace(checks.ccw_hull(pts))
        return pts * np.sqrt(self.AREA / area) + self.rng.uniform(0.35, 0.65, 2)

    def make_input(self, k):
        p = self._polygon()
        if k % 2 == 0:  # exact translate
            r, a = self.rng.uniform(0.05, 0.2), self.rng.uniform(0.0, 2.0 * np.pi)
            shift = np.array([r * np.cos(a), r * np.sin(a)])
            return p, p + shift, shift
        return p, self._polygon(), None

    def op(self, i):
        p, q, _ = self.pool[i % POOL]
        pair = bl.MeasurePair.make(gk.from_vrep(p), gk.from_vrep(q))
        w1 = {res: bl.w1_distance(pair, res) for res in self.RESOLUTIONS}
        return w1, bl.tv_distance(pair)

    def check(self, i, out):
        p, q, shift = self.pool[i % POOL]
        w1, tv = out
        return checks.check_transport(p, q, shift, w1, tv)


# ---------------------------------------------------------------------------
# sweep: phi sweeps, a fully linear lower level, and the bilevel command


def _dyadic(rng, lo, hi, size=None):
    """Multiples of 1/4, so that exact (rational) runs keep small numbers."""
    return rng.integers(int(4 * lo), int(4 * hi) + 1, size=size) / 4.0


class Sweep(Workload):
    name = "sweep"
    GRID = 24
    EPS = 0.25
    N_X = 3

    def _lower_level(self):
        """argmin_y {w.y : y in [0,1]^3, w.y >= beta + alpha x, u.y <= delta + gamma x}
        for x in [0, 1]; its optimal faces are points, edges or polygons in 3-space."""
        while True:
            w = _dyadic(self.rng, 0.5, 1.0, 3)
            u = self.rng.integers(-1, 2, 3).astype(float)
            alpha, beta = _dyadic(self.rng, 0.25, 0.5), _dyadic(self.rng, 0.25, 0.5)
            gamma, delta = _dyadic(self.rng, 0.0, 0.5), _dyadic(self.rng, 0.5, 1.0)
            if not u.any():
                continue
            eye = np.eye(3)
            B = np.vstack([-eye, eye, np.zeros((2, 3)), -w, u])
            A = np.array([[0.0]] * 6 + [[-1.0], [1.0], [alpha], [-gamma]])
            b = np.concatenate([np.zeros(3), np.ones(3), [0.0, 1.0, -beta, delta]])
            # A ball in the fibers at x = 0 and x = 1 puts one in every fiber
            # between (the joint set is convex), so every eps-set is 3-D.
            if min(checks.chebyshev_radius(A, B, b, x) for x in (0.0, 1.0)) >= 1.0 / 16.0:
                return A, B, b, w

    def make_input(self, k):
        A, B, b, c = self._lower_level()
        xs = np.sort(self.rng.choice(np.arange(9) / 8.0, self.N_X, replace=False))
        g = _dyadic(self.rng, -1.0, 1.0, 1)
        h = _dyadic(self.rng, -1.0, 1.0, 3)
        problem = {
            "version": "1",
            "map": {"kind": "bilevel_linear", "a_matrix": A.tolist(), "b_matrix": B.tolist(),
                    "rhs": b.tolist(), "cost": c.tolist()},
            "belief": {"kind": "neutral"},
            "grid": {"start": 0.0, "stop": 1.0, "count": 9},
            "leader": {"g": g.tolist(), "h": h.tolist()},
        }
        path = os.path.join(self.scratch, f"sweep-{k}.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        return {
            "tgrid": np.sort(10.0 ** self.rng.uniform(-6.0, 0.0, self.GRID)),
            "q": float(self.rng.uniform(1.2, 3.0)),
            "qgrid": np.sort(10.0 ** self.rng.uniform(-6.0, 0.0, self.GRID)),
            "lower": (A, B, b, c),
            "xs": xs,
            "problem": path,
            "leader": (g, h),
        }

    def op(self, i):
        d = self.pool[i % POOL]
        trap = probe.sweep_phi(sv.TrapezoidMap(), grid=d["tgrid"])
        qmap = probe.sweep_phi(sv.QMap(q=d["q"]), grid=d["qgrid"])
        A, B, b, c = d["lower"]
        spec = sv.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=c)
        face_map = sv.BilevelSolutionMap(spec=spec)
        eps_map = sv.EpsArgminMap(spec=spec, eps=self.EPS)
        faces, eps_sets, means = {}, {}, {}
        for x in d["xs"]:
            for exact in (False, True):
                faces[x, exact] = sv.eval_map(face_map, x, exact=exact)
                eps_sets[x, exact] = sv.eval_map(eps_map, x, exact=exact)
            P = eps_sets[x, False]
            means[x] = [bl.expect_neutral(P, bl.Polynomial.coordinate(j, 3)) for j in range(3)]
        out_path = os.path.join(self.scratch, "bilevel-out.json")
        code = run_cli(["bilevel", d["problem"], "--out", out_path])
        with open(out_path) as fh:
            summary = json.load(fh)["summary"]
        return {"trap": trap.phi, "qmap": qmap.phi, "faces": faces, "eps_sets": eps_sets,
                "means": means, "cli_code": code, "cli_summary": summary}

    def check(self, i, out):
        d = self.pool[i % POOL]
        A, B, b, c = d["lower"]
        fails = checks.check_closed_form(out["trap"], checks.trapezoid_phi(d["tgrid"]), "trapezoid")
        fails += checks.check_closed_form(out["qmap"], checks.qmap_phi(d["qgrid"], d["q"]), "qmap")
        for x in d["xs"]:
            opt = checks.lower_level_optimum(A, B, b, c, x)
            for exact in (False, True):
                fails += checks.check_face(A, B, b, c, x, out["faces"][x, exact].vrep, opt)
                fails += checks.check_face(A, B, b, c, x, out["eps_sets"][x, exact].vrep, opt, self.EPS)
            if not checks.same_vertex_set(out["faces"][x, False].vrep, out["faces"][x, True].vrep):
                fails.append(f"x={x}: float and exact optimal faces differ")
            if not checks.same_vertex_set(out["eps_sets"][x, False].vrep, out["eps_sets"][x, True].vrep):
                fails.append(f"x={x}: float and exact eps-sets differ")
            verts = out["eps_sets"][x, False].vrep
            if not checks.full_dimensional(verts):
                fails.append(f"x={x}: eps-set is not 3-dimensional")
                continue
            _, mean, _ = checks.simplex_moments(verts)
            fails += checks.check_mean(out["means"][x], mean, 1.0, f"x={x}: eps-set E[y]")
        fails += self._check_cli(d, out["cli_code"], out["cli_summary"])
        return fails

    def _check_cli(self, d, code, summary):
        if code != 0:
            return [f"bilevel exited {code}"]
        A, B, b, c = d["lower"]
        g, h = d["leader"]
        face_map = sv.BilevelSolutionMap(spec=sv.BilevelLinearSpec(a_matrix=A, b_matrix=B, rhs=b, cost=c))
        h_poly = bl.Polynomial.from_dict({tuple(int(i == j) for i in range(3)): h[j] for j in range(3)}, 3)
        xs = np.linspace(0.0, 1.0, 9)
        vals = [float(g[0] * x) + bl.expect_neutral(sv.eval_map(face_map, x), h_poly) for x in xs]
        best = int(np.argmin(vals))
        if summary["argmin_x"] != xs[best] or abs(summary["argmin_value"] - vals[best]) > 1e-12:
            return [f"bilevel argmin {summary['argmin_x']} != library argmin {xs[best]}"]
        return []


def run_cli(args) -> int:
    """Run the movingbeliefs command line in this process; return its exit code."""
    try:
        cli.main.main(args=args, prog_name="movingbeliefs", standalone_mode=False)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    return 0


# ---------------------------------------------------------------------------
# expect4d: expectations under uniform laws on 4-D polytopes


class Expect4d(Workload):
    name = "expect4d"
    CLOUD = 150
    MC_SAMPLES = 500
    SCALE = np.array([1.0, 0.8, 0.6, 0.5])

    def make_input(self, k):
        cloud = self.rng.standard_normal((self.CLOUD, 4)) * self.SCALE + self.rng.uniform(-1, 1, 4)
        a = self.rng.uniform(-1.0, 1.0, 4)
        quad = np.triu(self.rng.uniform(-1.0, 1.0, (4, 4)))
        lin = self.rng.uniform(-1.0, 1.0, 4)
        beta = self.rng.uniform(-0.5, 0.5, 4)
        c0 = 1.0 + float(np.abs(beta) @ np.abs(cloud).max(axis=0))
        return {"cloud": cloud, "a": a, "quad": quad, "lin": lin, "beta": beta, "c0": c0}

    @staticmethod
    def _linear(coef, const=0.0):
        terms = {tuple(int(i == j) for i in range(4)): float(coef[j]) for j in range(4)}
        terms[(0, 0, 0, 0)] = const
        return bl.Polynomial.from_dict(terms, 4)

    @staticmethod
    def _quadratic(quad, lin):
        terms = {}
        for i in range(4):
            for j in range(i, 4):
                e = [0] * 4
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = float(quad[i, j])
            terms[tuple(int(r == i) for r in range(4))] = float(lin[i])
        return bl.Polynomial.from_dict(terms, 4)

    def op(self, i):
        d = self.pool[i % POOL]
        P = gk.from_vrep(d["cloud"])
        f1 = self._linear(d["a"])
        e1 = bl.expect_neutral(P, f1)
        e2 = bl.expect_neutral(P, self._quadratic(d["quad"], d["lin"]))
        ed = bl.expect_density(P, self._linear(d["beta"], d["c0"]), f1)
        a = d["a"]
        opaque = bl.Opaque(fn=lambda y: y @ a, dim=4)
        mc, _ = bl.expect_neutral_with_error(P, opaque, n_samples=self.MC_SAMPLES)
        return {"P": P, "e1": e1, "e2": e2, "ed": ed, "mc": mc}

    def check(self, i, out):
        d = self.pool[i % POOL]
        pts = d["cloud"][checks.ConvexHull(d["cloud"]).vertices]
        vol, m1, m2 = checks.simplex_moments(pts)
        a, beta, c0 = d["a"], d["beta"], d["c0"]
        scale = float(np.abs(pts).max()) ** 2
        fails = checks.check_mean(gk.volume(out["P"]), vol, vol, "volume")
        fails += checks.check_mean(out["e1"], a @ m1, scale, "E[a.y]")
        e2 = float(np.sum(d["quad"] * m2) + d["lin"] @ m1)
        fails += checks.check_mean(out["e2"], e2, scale, "E[quadratic]")
        ed = (c0 * (a @ m1) + a @ m2 @ beta) / (c0 + beta @ m1)
        fails += checks.check_mean(out["ed"], ed, scale, "density-weighted E[a.y]")
        var = float(a @ (m2 - np.outer(m1, m1)) @ a)
        fails += checks.check_mc(out["mc"], float(a @ m1), var, self.MC_SAMPLES)
        return fails


WORKLOADS = {w.name: w for w in (Bodies, Transport, Sweep, Expect4d)}
