"""Self-test of the benchmark's output checks.

For each workload, one operation is run and must pass its checks; then each
perturbation below is applied to a copy of the output and the checks must
report at least one failure.  Run from the repository root:

    python3 perfbench/selftest.py            # or: python -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from movingbeliefs import geomkernel as gk  # noqa: E402


def _edit(fn):
    """Perturbation that edits a deep copy of the output in place."""

    def apply(out):
        out = copy.deepcopy(out)
        if isinstance(out, tuple):
            out = list(out)
        fn(out)
        return out

    return apply


def _bodies(wl, i):
    def margin(out):
        out[0].checks[3].margin = -1e-6

    def trial(field, f):
        def edit(out):
            out[1][0][field] = f(out[1][0][field])

        return edit

    return {
        "negative suite margin": margin,
        "3-D volume off": trial("vol", lambda v: (v[0] * (1 + 1e-6), v[1])),
        "asymmetric Hausdorff": trial("d_ba", lambda v: v + 1e-6),
        "interpolation off the geodesic": trial("d_geo", lambda v: v + 1.0),
        "diameter jump": trial("diam", lambda v: (v[0] + 10.0, v[1])),
        "symmetric difference below |dvol|": trial("sym", lambda v: -1.0),
        "enclosing ball too large": trial("radius", lambda v: 2.0 * v),
    }


def _transport(wl, i):
    def w1(f):
        def edit(out):
            out[0] = {res: (f(w, e), e) for res, (w, e) in out[0].items()}

        return edit

    def tv(value):
        def edit(out):
            out[1] = value

        return edit

    edits = {
        "W1 below the mean gap": w1(lambda w, e: -1.0),
        "W1 above (diam Y / 2) TV": w1(lambda w, e: w + 10.0),
        "TV outside [0, 2]": tv(2.5),
    }
    if wl.pool[i % workloads.POOL][2] is not None:  # exact translate: W1 is |shift|
        edits["W1 moved by twice its bound"] = w1(lambda w, e: w + 2.0 * e + 0.1)
    return edits


def _sweep(wl, i):
    def key(name, f):
        def edit(out):
            out[name] = f(out[name])

        return edit

    def first(mapping, f):
        k = next(iter(mapping))
        mapping[k] = f(mapping[k])
        return mapping

    return {
        "trapezoid phi off by 1e-8": key("trap", lambda v: v + 1e-8),
        "power-wedge phi off by 1e-8": key("qmap", lambda v: v * (1 + 1e-8)),
        "float optimal face shifted": key(
            "faces", lambda m: first(m, lambda P: gk.translate(P, [1e-6, 0.0, 0.0]))
        ),
        "eps-set shifted": key(
            "eps_sets", lambda m: first(m, lambda P: gk.translate(P, [0.0, 0.0, -1e-3]))
        ),
        "eps-set mean off": key("means", lambda m: first(m, lambda v: [v[0] + 1e-6] + v[1:])),
        "bilevel exit code 1": key("cli_code", lambda v: 1),
        "bilevel argmin moved": key(
            "cli_summary", lambda s: dict(s, argmin_x=s["argmin_x"] + 0.125)
        ),
    }


def _expect4d(wl, i):
    def key(name, f):
        def edit(out):
            out[name] = f(out[name])

        return edit

    return {
        "volume off": key("P", lambda P: gk.scale(P, 1.0 + 1e-6)),
        "first moment off": key("e1", lambda v: v + 1e-6),
        "second moment off": key("e2", lambda v: v + 1e-6),
        "density-weighted mean off": key("ed", lambda v: v * (1 + 1e-6) + 1e-6),
        "Monte Carlo off by 10 tolerances": key("mc", lambda v: v + 1.0),
    }


PERTURBATIONS = {
    "bodies": _bodies,
    "transport": _transport,
    "sweep": _sweep,
    "expect4d": _expect4d,
}


def run_workload(name, seed=0):
    """Returns a list of problems (empty when every check behaves)."""
    problems = []
    with tempfile.TemporaryDirectory() as scratch:
        wl = workloads.WORKLOADS[name](seed, scratch)
        ops = [1, 2] if name == "transport" else [1]  # a translate and a non-translate
        for i in ops:
            out = wl.op(i)
            fails = wl.check(i, out)
            if fails:
                problems.append(f"{name}: unperturbed op {i} fails: {fails}")
            for label, edit in PERTURBATIONS[name](wl, i).items():
                try:
                    caught = wl.check(i, _edit(edit)(out))
                except Exception as exc:  # a crashing check is not a working check
                    caught = []
                    problems.append(f"{name}: check raised on '{label}': {exc!r}")
                if not caught:
                    problems.append(f"{name}: op {i}: perturbation '{label}' went unnoticed")
    return problems


def run_planar_kernels():
    """The final bodies checks: planar area, Hausdorff distance, Steiner point."""
    rng = np.random.default_rng(3)
    A = gk.from_vrep(rng.random((7, 2)))
    B = gk.from_vrep(rng.random((6, 2)))
    s = gk.steiner_point(A)
    problems = []
    if checks.check_body_kernels(A.vrep, gk.volume(A), s) or checks.check_hausdorff_2d(
        A.vrep, B.vrep, gk.hausdorff(A, B)
    ):
        problems.append("planar kernels: unperturbed values fail")
    for label, caught in {
        "area off": checks.check_body_kernels(A.vrep, gk.volume(A) * (1 + 1e-6), s),
        "Steiner point off": checks.check_body_kernels(A.vrep, gk.volume(A), s + 1e-6),
        "Hausdorff off": checks.check_hausdorff_2d(A.vrep, B.vrep, gk.hausdorff(A, B) + 1e-6),
    }.items():
        if not caught:
            problems.append(f"planar kernels: perturbation '{label}' went unnoticed")
    return problems


def test_bodies():
    assert not run_workload("bodies")


def test_transport():
    assert not run_workload("transport")


def test_sweep():
    assert not run_workload("sweep")


def test_expect4d():
    assert not run_workload("expect4d")


def test_planar_kernels():
    assert not run_planar_kernels()


def main():
    problems = run_planar_kernels()
    for name in PERTURBATIONS:
        problems += run_workload(name)
    for p in problems:
        print(p)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
