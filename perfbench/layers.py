"""Per-layer timing taken from outside the program.

``Tracer.install`` replaces the public functions of the six movingbeliefs
modules, and the dependency calls they make through module attributes
(``beliefs.linprog``, ``geomkernel.ConvexHull``, ``geomkernel.Delaunay``),
with wrappers that count calls and record self time: a call's duration minus
the time spent in wrapped calls below it.  ``uninstall`` puts the originals
back.  Nothing in the program is edited, so untraced runs pay nothing.

Functions that an optimisation is most likely to move get their own
``<module>.<function>.calls`` / ``.self_ms`` metrics; the remaining public
functions of a module are pooled as ``<module>.other``.  Time inside an
operation that no wrapper covers (the benchmark's own op code and program
methods it calls directly) is ``harness.self_ms``.  The self times of one
operation therefore add up to its traced duration.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

from movingbeliefs import beliefs, cli, convexsolve, geomkernel, probe, svmaps

MODULES = {
    "geomkernel": geomkernel,
    "convexsolve": convexsolve,
    "beliefs": beliefs,
    "svmaps": svmaps,
    "probe": probe,
    "cli": cli,
}

# Functions timed on their own; every other public function of the module
# falls into "<module>.other".
NAMED = {
    "geomkernel": [
        "from_vrep", "from_hrep", "clip_with_box", "clip_with_box_exact", "intersect",
        "hausdorff", "steiner_point", "minkowski_interpolate", "minkowski_sum",
        "sym_diff_volume", "enclosing_ball", "volume", "diameter", "translate",
        "dist_point", "same_affine_hull", "triangulate", "project",
    ],
    "convexsolve": ["min_norm_point"],
    "beliefs": [
        "w1_distance", "tv_distance", "expect", "expect_neutral",
        "expect_neutral_with_error", "expect_density", "sample_uniform", "simplex_average",
    ],
    "svmaps": ["eval_map", "bilevel_solution", "eps_argmin"],
    "probe": ["verify_body_lemmas", "random_polytope", "sweep_phi"],
    "cli": [],
}

# Timed spans whose metric name is not "<module>.<function>".
SPANS = [
    "convexsolve.lp_solve.exact", "convexsolve.lp_solve.float",
    "geomkernel.ConvexHull", "geomkernel.Delaunay", "beliefs.linprog",
    "cli.main", "cli.bilevel",
]

# Counts and values recorded by hooks, reported per operation.
EXTRAS = {
    "geomkernel.intersect.empty": "count",
    "geomkernel.qhull_joggle.calls": "count",
    "beliefs.linprog.vars": "count",
}


def metric_units():
    """Every per-layer metric name with its unit, in reporting order."""
    spans = [f"{mod}.{fn}" for mod, fns in NAMED.items() for fn in fns]
    spans += SPANS + [f"{mod}.other" for mod in MODULES]
    units = {}
    for name in spans:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["harness.self_ms"] = "ms"
    units.update(EXTRAS)
    units["beliefs.w1_err"] = "length"
    units["trace.untraced_op_ms_p50"] = "ms"
    units["trace.traced_op_ms_p50"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self.w1_err = [0.0, 0]
        self._stack = []
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, pick=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            metric = pick(args, kwargs) if pick else name
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[metric] += elapsed - stack.pop()
                calls[metric] += 1
                stack[-1] += elapsed
            if after:
                after(args, kwargs, out)
            return out

        return wrapper

    def _replace(self, obj, attr, wrapper):
        self._saved.append((obj, attr, getattr(obj, attr), attr in vars(obj)))
        setattr(obj, attr, wrapper)

    def install(self):
        for mod_name, mod in MODULES.items():
            named = set(NAMED[mod_name])
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if mod_name == "convexsolve" and attr == "lp_solve":
                    self._replace(mod, attr, self._wrap(fn, None, pick=_lp_kind))
                    continue
                metric = f"{mod_name}.{attr}" if attr in named else f"{mod_name}.other"
                after = {"intersect": self._after_intersect, "w1_distance": self._after_w1}.get(attr)
                self._replace(mod, attr, self._wrap(fn, metric, after=after))
        for cls in ("ConvexHull", "Delaunay"):
            fn = getattr(geomkernel, cls)
            self._replace(geomkernel, cls, self._wrap(fn, f"geomkernel.{cls}", after=self._after_qhull))
        self._replace(beliefs, "linprog", self._wrap(beliefs.linprog, "beliefs.linprog", after=self._after_linprog))
        self._replace(cli.main, "main", self._wrap(cli.main.main, "cli.main"))
        self._replace(cli.cmd_bilevel, "callback", self._wrap(cli.cmd_bilevel.callback, "cli.bilevel"))

    def uninstall(self):
        while self._saved:
            obj, attr, original, own = self._saved.pop()
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    # -- hooks -------------------------------------------------------------

    def _after_intersect(self, args, kwargs, out):
        P, Q = args[0], args[1]
        if out is None or out.intrinsic_dim < min(P.intrinsic_dim, Q.intrinsic_dim):
            self.extra["geomkernel.intersect.empty"] += 1

    def _after_qhull(self, args, kwargs, out):
        if "QJ" in (kwargs.get("qhull_options") or ""):
            self.extra["geomkernel.qhull_joggle.calls"] += 1

    def _after_linprog(self, args, kwargs, out):
        self.extra["beliefs.linprog.vars"] += len(args[0] if args else kwargs["c"])

    def _after_w1(self, args, kwargs, out):
        self.w1_err[0] += float(out[1])
        self.w1_err[1] += 1

    # -- one traced operation ------------------------------------------------

    def run(self, fn):
        """Run ``fn`` as the root span; returns (result, seconds).  Self times
        of this call are left in ``self.self_s`` for the caller to scale."""
        self.self_s.clear()
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - t0
            self.self_s["harness"] += elapsed - self._stack.pop()
        return out, elapsed


def _lp_kind(args, kwargs):
    exact = args[1] if len(args) > 1 else kwargs.get("exact", False)
    return "convexsolve.lp_solve.exact" if exact else "convexsolve.lp_solve.float"
