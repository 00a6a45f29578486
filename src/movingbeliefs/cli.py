"""Command-line entry point: example reproduction, verification suites, and
grid-search evaluation of linear bilevel leader objectives.

Problem files are JSON (schema-checked, version-tagged); bulk numeric output
is CSV with the fixed column order of ``probe.COLUMNS`` (reference columns
appended after, when a closed form exists).

Exit-code contract: 0 pass, 1 verified-property violation, 2 usage/schema/
precondition error.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

import click
import jsonschema
import numpy as np

from . import beliefs as bl
from . import geomkernel as gk
from . import probe as pr
from . import svmaps as sv
from .beliefs import Belief, NEUTRAL, Opaque, Polynomial
from .errors import MovingBeliefsError
from .geomkernel import Tolerances


@functools.cache
def _problem_validator():
    """Validator for the JSON schema of problem files, shipped as package
    data; built once, so a parse does not re-check the schema itself."""
    schema = json.loads(resources.files(__package__).joinpath("problem_schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


# ---------------------------------------------------------------------------
# parsing


def polytope_from_json(obj: dict, tol: Tolerances) -> gk.Polytope:
    return gk.from_vrep(np.asarray(obj["vertices"], dtype=float), tol)


def integrand_from_json(obj: dict, allow_imports: bool = False) -> bl.Integrand:
    """A polynomial, or an opaque ``module:attribute`` callable, which is
    imported only when ``allow_imports`` is set."""
    if obj["kind"] == "polynomial":
        terms = {tuple(t["exponents"]): t["coeff"] for t in obj["terms"]}
        return Polynomial.from_dict(terms, obj["dim"])
    if not allow_imports:
        raise ValueError(
            f"opaque integrand {obj['callable']!r} would import a module; pass --allow-imports to allow it"
        )
    mod_name, _, attr = obj["callable"].partition(":")
    if not attr:
        raise ValueError("opaque integrands need a 'module:attribute' callable")
    import importlib

    try:
        fn = getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"cannot import opaque integrand {obj['callable']!r}: {exc}") from exc
    return Opaque(fn=fn, dim=obj["dim"], label=obj["callable"])


def map_from_json(obj: dict, tol: Tolerances) -> sv.MapSpec:
    kind = obj["kind"]
    if kind == "trapezoid":
        return sv.TrapezoidMap()
    if kind == "qmap":
        return sv.QMap(q=float(obj.get("q", 2.0)))
    if kind == "rotseg":
        return sv.RotSegMap()
    if kind == "interp":
        return sv.InterpMap(
            body_a=polytope_from_json(obj["body_a"], tol),
            body_b=polytope_from_json(obj["body_b"], tol),
        )
    if kind in ("bilevel_linear", "eps_argmin"):
        spec = sv.BilevelLinearSpec(
            a_matrix=np.asarray(obj["a_matrix"], dtype=float),
            b_matrix=np.asarray(obj["b_matrix"], dtype=float),
            rhs=np.asarray(obj["rhs"], dtype=float),
            cost=np.asarray(obj["cost"], dtype=float),
        )
        if kind == "bilevel_linear":
            return sv.BilevelSolutionMap(spec=spec)
        return sv.EpsArgminMap(spec=spec, eps=float(obj["eps"]))
    if kind == "generic_affine":
        return sv.GenericAffineMap(
            a_matrix=np.asarray(obj["a_matrix"], dtype=float),
            b_matrix=np.asarray(obj["b_matrix"], dtype=float),
            rhs=np.asarray(obj["rhs"], dtype=float),
        )
    raise ValueError(f"unknown map kind {kind}")


def belief_from_json(obj: Optional[dict], allow_imports: bool = False) -> Belief:
    if obj is None or obj["kind"] == "neutral":
        return NEUTRAL
    return Belief(density=integrand_from_json(obj["density"], allow_imports))


@dataclass(frozen=True)
class ThetaPoly:
    """Cost family polynomial in the parameter and the response:
    theta(x, y) = sum coeff * x^a * prod y_j^b_j."""

    terms: tuple  # ((x_exponent, y_exponents tuple, coeff), ...)
    y_dim: int

    def __call__(self, x) -> Polynomial:
        xv = float(x) if np.isscalar(x) else float(np.asarray(x).ravel()[0])
        agg: dict = {}
        for x_exp, y_exps, coeff in self.terms:
            agg[y_exps] = agg.get(y_exps, 0.0) + coeff * xv**x_exp
        return Polynomial.from_dict(agg, self.y_dim)

    @staticmethod
    def from_json(obj: dict) -> "ThetaPoly":
        terms = []
        y_dim = None
        for t in obj["terms"]:
            y_exps = tuple(int(e) for e in t["y_exponents"])
            y_dim = len(y_exps) if y_dim is None else y_dim
            if len(y_exps) != y_dim:
                raise ValueError("inconsistent response dimension in theta terms")
            terms.append((int(t.get("x_exponent", 0)), y_exps, float(t["coeff"])))
        return ThetaPoly(terms=tuple(terms), y_dim=y_dim)


def tolerances_from_json(obj: Optional[dict]) -> Tolerances:
    if not obj:
        return gk.DEFAULT_TOL
    base = gk.DEFAULT_TOL
    return Tolerances(
        feas_tol=float(obj.get("feas_tol", base.feas_tol)),
        rank_tol=float(obj.get("rank_tol", base.rank_tol)),
        sphere_nodes=int(obj.get("sphere_nodes", base.sphere_nodes)),
        rng_seed=int(obj.get("rng_seed", base.rng_seed)),
    )


@dataclass(eq=False)
class ProblemFile:
    map_spec: sv.MapSpec
    belief: Belief
    theta: Optional[ThetaPoly]
    grid: np.ndarray
    tolerances: Tolerances
    anchor: Optional[float]
    y_box: Optional[tuple]
    w1_resolution: Optional[float]
    leader: Optional[dict]

    @staticmethod
    def parse(obj: dict, allow_imports: bool = False) -> "ProblemFile":
        _problem_validator().validate(obj)
        tol = tolerances_from_json(obj.get("tolerances"))
        spec = map_from_json(obj["map"], tol)
        g = obj["grid"]
        grid = pr.make_grid(g["start"], g["stop"], g["count"], g.get("log", False))
        if not all(spec.in_domain(x) for x in grid):
            raise jsonschema.ValidationError("grid leaves the map domain")
        y_box = None
        if "y_box" in obj:
            y_box = (np.asarray(obj["y_box"][0], float), np.asarray(obj["y_box"][1], float))
        return ProblemFile(
            map_spec=spec,
            belief=belief_from_json(obj.get("belief"), allow_imports),
            theta=ThetaPoly.from_json(obj["theta"]) if "theta" in obj else None,
            grid=grid,
            tolerances=tol,
            anchor=obj.get("anchor"),
            y_box=y_box,
            w1_resolution=obj.get("w1_resolution"),
            leader=obj.get("leader"),
        )


# ---------------------------------------------------------------------------
# output helpers

def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return repr(float(v))


def rows_to_csv(rows, extra_columns=()) -> str:
    cols = list(pr.COLUMNS) + list(extra_columns)
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parse_grid_flag(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if parts[0] == "log":
        if len(parts) != 4:
            raise click.UsageError("log grid spec is log:start:stop:count")
        return pr.make_grid(float(parts[1]), float(parts[2]), int(parts[3]), log=True)
    if len(parts) != 3:
        raise click.UsageError("grid spec is start:stop:count or log:start:stop:count")
    return pr.make_grid(float(parts[0]), float(parts[1]), int(parts[2]))


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Uniform beliefs over moving polytopal supports: sweeps and checks."""


_CLOSED_FORMS = {
    "trapezoid": lambda x, q: (3.0 - np.sqrt(x)) / (6.0 - 3.0 * x**0.25),
    "qmap": lambda x, q: (2.0 * x ** (q - 1.0) + 3.0) / (6.0 + 3.0 * x ** (q - 1.0)),
}


@main.command("example")
@click.argument("name", type=click.Choice(["trapezoid", "qmap", "rotseg"]))
@click.option("--q", type=float, default=2.0, help="exponent of the power-wedge family")
@click.option("--grid", "grid_spec", default=None, help="start:stop:count or log:start:stop:count")
@click.option("--seed", type=int, default=None)
@click.option("--tol", type=float, default=None, help="feasibility tolerance")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
def cmd_example(name, q, grid_spec, seed, tol, out, fmt):
    """Sweep a built-in example family and compare against its closed form."""
    tolerances = replace(
        gk.DEFAULT_TOL,
        feas_tol=tol or gk.DEFAULT_TOL.feas_tol,
        rng_seed=gk.DEFAULT_TOL.rng_seed if seed is None else seed,
    )
    if name == "trapezoid":
        spec = sv.TrapezoidMap()
        grid = _parse_grid_flag(grid_spec) if grid_spec else pr.make_grid(1e-6, 1.0, 100, log=True)
    elif name == "qmap":
        spec = sv.QMap(q=q)
        grid = _parse_grid_flag(grid_spec) if grid_spec else pr.make_grid(1e-6, 1.0, 100, log=True)
    else:
        spec = sv.RotSegMap()
        grid = _parse_grid_flag(grid_spec) if grid_spec else np.linspace(0.0, 1.0, 101)[:-1]

    try:
        report = pr.sweep_phi(spec, NEUTRAL, None, grid, tolerances)
    except MovingBeliefsError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    rows = report.rows()
    extra = ()
    exit_code = 0
    if name in _CLOSED_FORMS:
        ref = _CLOSED_FORMS[name](report.grid, q)
        err = np.abs(report.phi - ref)
        for row, r, e in zip(rows, ref, err):
            row["phi_ref"] = float(r)
            row["abs_err"] = float(e)
        extra = ("phi_ref", "abs_err")
        if float(err.max()) > 1e-9:
            click.echo(f"closed-form mismatch: max |phi - ref| = {err.max():.3e}", err=True)
            exit_code = 1
        def masked_max(mask):
            vals = report.ratio[mask]
            vals = vals[np.isfinite(vals)]
            return float(vals.max()) if vals.size else math.nan

        lo_ratio = masked_max(report.grid <= report.grid.min() * 100.0)
        hi_ratio = masked_max(report.grid >= report.grid.max() / 10.0)
        if np.isfinite(lo_ratio) and np.isfinite(hi_ratio) and lo_ratio > 10.0 * max(hi_ratio, 1e-12):
            report.notes.append("phi non-Lipschitz near 0: ratios diverging")
    else:
        report.notes.append("no closed-form reference for this family")

    if fmt == "csv":
        text = rows_to_csv(rows, extra)
        if report.notes:
            text += "".join(f"# {n}\n" for n in report.notes)
    else:
        text = pr._dumps({"rows": rows, "notes": report.notes, "max_ratio": report.max_ratio})
    _emit(text, out)
    for note in report.notes:
        click.echo(f"note: {note}", err=True)
    sys.exit(exit_code)


def _builtin_problem(name: str):
    if name == "eps-toy":
        return sv.EpsArgminMap(spec=sv.toy_bilevel_spec(), eps=0.1), pr.make_grid(0.0, 0.9, 50), 0.0
    if name == "bilevel-toy":
        return sv.BilevelSolutionMap(spec=sv.toy_bilevel_spec()), pr.make_grid(0.0, 0.9, 25), 0.0
    if name == "trapezoid":
        return sv.TrapezoidMap(), pr.make_grid(0.0, 1.0, 50), 0.0
    if name == "qmap":
        return sv.QMap(q=2.0), pr.make_grid(0.0, 1.0, 50), 0.0
    raise click.UsageError(f"unknown builtin '{name}'")


def _load_problem(path: str, allow_imports: bool) -> ProblemFile:
    """Parse a problem file; a schema or precondition error exits 2."""
    try:
        with open(path) as fh:
            return ProblemFile.parse(json.load(fh), allow_imports)
    except (jsonschema.ValidationError, json.JSONDecodeError) as exc:
        click.echo(f"schema error: {getattr(exc, 'message', exc)}", err=True)
    except (MovingBeliefsError, ValueError, KeyError) as exc:
        click.echo(f"precondition error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(2)


_ALLOW_IMPORTS_HELP = "let opaque integrands of the problem file import their module:attribute callable"


@main.command("verify")
@click.argument("suite", type=click.Choice(["body", "tv-bound", "sandwich", "w1"]))
@click.argument("problem", type=click.Path(exists=True), required=False)
@click.option("--builtin", "builtin", default=None, help="eps-toy | bilevel-toy | trapezoid | qmap")
@click.option("--samples", type=click.IntRange(min=2), default=500, help="sample count for the body suite")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--allow-imports", is_flag=True, help=_ALLOW_IMPORTS_HELP)
def cmd_verify(suite, problem, builtin, samples, seed, out, fmt, allow_imports):
    """Run a verification suite; exit 0 iff no violations."""
    try:
        if suite == "body":
            report = pr.verify_body_lemmas(samples=samples, seed=seed)
        else:
            if problem:
                pf = _load_problem(problem, allow_imports)
                spec, grid, anchor, tol = pf.map_spec, pf.grid, pf.anchor, pf.tolerances
                y_box, resolution = pf.y_box, pf.w1_resolution
            elif builtin:
                spec, grid, anchor = _builtin_problem(builtin)
                tol, y_box, resolution = gk.DEFAULT_TOL, None, None
            else:
                raise click.UsageError("this suite needs a problem file or --builtin")
            if suite == "tv-bound":
                report = pr.verify_tv_bound(spec, grid, tol, y_box)
            elif suite == "sandwich":
                report = pr.verify_sandwich_and_h(spec, anchor if anchor is not None else grid[0], grid, tol)
            else:
                report = pr.verify_w1_regime(spec, grid, tol, resolution)
    except click.UsageError:
        raise
    except MovingBeliefsError as exc:
        click.echo(f"precondition error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(2)

    if fmt == "json":
        _emit(report.to_json() + "\n", out)
    else:
        meta = report.metadata
        rows = []
        if meta.get("grid") is not None:
            rows = pr.table_rows(meta["grid"], bound_lhs=meta.get("lhs"), bound_rhs=meta.get("rhs"))
        _emit(rows_to_csv(rows), out)
    sys.exit(0 if report.passed else 1)


@main.command("bilevel")
@click.argument("problem", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--exact", is_flag=True)
@click.option("--allow-imports", is_flag=True, help=_ALLOW_IMPORTS_HELP)
def cmd_bilevel(problem, out, fmt, exact, allow_imports):
    """Evaluate the leader objective g.x + E[h.y] on the grid under the
    neutral (or density) belief and report the grid argmin."""
    pf = _load_problem(problem, allow_imports)
    if pf.leader is None:
        raise click.UsageError("bilevel command needs a 'leader' section {g, h}")
    if not isinstance(pf.map_spec, (sv.BilevelSolutionMap, sv.EpsArgminMap)):
        raise click.UsageError("bilevel command needs a bilevel_linear or eps_argmin map")
    if len(pf.grid) == 0:
        raise click.UsageError("empty grid")

    g_vec = np.asarray(pf.leader["g"], dtype=float)
    h_vec = np.asarray(pf.leader["h"], dtype=float)
    m = pf.map_spec.spec.n_vars
    h_poly = Polynomial.from_dict({tuple(int(i == j) for i in range(m)): float(h_vec[j]) for j in range(m)}, m)

    xs, vals, evaluated = [], [], []
    skipped = []
    for k, x in enumerate(pf.grid):
        try:
            img = sv.eval_map(pf.map_spec, x, pf.tolerances, exact)
        except MovingBeliefsError as exc:
            skipped.append(float(x))
            click.echo(f"warning: skipping x={x}: {type(exc).__name__}", err=True)
            continue
        follower = bl.expect(img, pf.belief, h_poly, pf.tolerances)
        xs.append(float(x))
        vals.append(float(g_vec @ np.atleast_1d(x) + follower))
        evaluated.append(k)
    if not xs:
        click.echo("error: every grid point was infeasible", err=True)
        sys.exit(2)
    xs = np.array(xs)
    vals = np.array(vals)
    best = int(np.argmin(vals))
    # ratios[i] compares row i with row i-1, only when they are grid neighbours
    ratios = np.full(len(xs), math.nan)
    adjacent = np.diff(evaluated) == 1
    ratios[1:][adjacent] = (np.abs(np.diff(vals)) / np.maximum(np.abs(np.diff(xs)), 1e-300))[adjacent]
    summary = {
        "argmin_x": float(xs[best]),
        "argmin_value": float(vals[best]),
        "lipschitz_estimate": float(np.max(ratios[1:][adjacent])) if adjacent.any() else 0.0,
        "skipped": skipped,
    }
    rows = pr.table_rows(xs, phi=vals, ratio=ratios)
    if fmt == "json":
        _emit(pr._dumps({"summary": summary, "rows": rows}) + "\n", out)
    else:
        _emit(rows_to_csv(rows), out)
    sys.exit(0)


if __name__ == "__main__":
    main()
