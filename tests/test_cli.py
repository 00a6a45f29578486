"""CLI contract tests: exit codes, formats, determinism, problem-file parsing."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from scipy.spatial import QhullError

from movingbeliefs import cli
from movingbeliefs import geomkernel as gk
from movingbeliefs.errors import ParameterInfeasible, QhullJoggleWarning

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "problems"

TOY_MAP = {
    "kind": "bilevel_linear",
    "a_matrix": [[1.0], [0.0], [0.0], [0.0], [-1.0], [1.0]],
    "b_matrix": [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
    "rhs": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
    "cost": [0.0, 1.0],
}


def toy_problem(h, count=21):
    return {
        "version": "1",
        "map": TOY_MAP,
        "belief": {"kind": "neutral"},
        "grid": {"start": 0.0, "stop": 1.0, "count": count, "log": False},
        "leader": {"g": [0.0], "h": h},
    }


def cubes_problem(path, m, side):
    """An interp problem between the m-cube of the given side and its copy
    shifted by half a side along the first axis, with W1 resolution side/4."""
    cube = [[side * c for c in p] for p in itertools.product((0.0, 1.0), repeat=m)]
    shifted = [[p[0] + side / 2] + p[1:] for p in cube]
    path.write_text(json.dumps({
        "version": "1",
        "map": {"kind": "interp", "body_a": {"vertices": cube}, "body_b": {"vertices": shifted}},
        "grid": {"start": 0.0, "stop": 1.0, "count": 5},
        "w1_resolution": side / 4,
    }))
    return path


def run_child(args):
    """The command line in a child process, where a crash inside Qhull would
    end the child and not the test run."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "movingbeliefs.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity constants that JSON lacks."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def runner():
    return CliRunner()


class TestProblemFile:
    def test_parse_reads_grid_map_and_belief(self):
        from movingbeliefs import svmaps as sv

        pf = cli.ProblemFile.parse(toy_problem([1.0, 0.0]))
        assert np.array_equal(pf.grid, np.linspace(0.0, 1.0, 21))
        assert type(pf.map_spec) is sv.BilevelSolutionMap
        for key in ("a_matrix", "b_matrix", "rhs", "cost"):
            got = getattr(pf.map_spec.spec, key)
            assert got.dtype == float and np.array_equal(got, TOY_MAP[key])
        assert pf.belief.is_neutral

    def test_packaged_schema_is_valid(self):
        validator = cli._problem_validator()
        validator.check_schema(validator.schema)

    def test_schema_rejects_bad_version(self):
        import jsonschema

        bad = toy_problem([1.0, 0.0])
        bad["version"] = "99"
        with pytest.raises(jsonschema.ValidationError):
            cli.ProblemFile.parse(bad)

    def test_grid_outside_domain_rejected(self):
        import jsonschema

        bad = {
            "version": "1",
            "map": {"kind": "trapezoid"},
            "grid": {"start": 0.0, "stop": 2.0, "count": 5},
        }
        with pytest.raises(jsonschema.ValidationError):
            cli.ProblemFile.parse(bad)

    def test_integrand_parse(self):
        from movingbeliefs import beliefs as bl

        f = bl.Polynomial.from_dict({(1, 0): 2.0, (0, 2): -1.0}, 2)
        obj = {
            "kind": "polynomial",
            "dim": 2,
            "terms": [{"exponents": [1, 0], "coeff": 2.0}, {"exponents": [0, 2], "coeff": -1.0}],
        }
        assert cli.integrand_from_json(obj).terms == f.terms


class TestExampleCommand:
    def test_trapezoid_closed_form_passes(self, runner):
        res = runner.invoke(cli.main, ["example", "trapezoid", "--grid", "log:1e-6:1:50"])
        assert res.exit_code == 0
        header = res.output.splitlines()[0]
        assert header.startswith("x,phi,fd,ratio,bound_lhs,bound_rhs,margin")
        assert "phi_ref" in header

    def test_qmap_low_exponent_flags_divergence(self, runner):
        res = runner.invoke(cli.main, ["example", "qmap", "--q", "1.5"])
        assert res.exit_code == 0
        assert "ratios diverging" in res.output

    def test_qmap_high_exponent_bounded(self, runner):
        res = runner.invoke(cli.main, ["example", "qmap", "--q", "3"])
        assert res.exit_code == 0
        assert "ratios diverging" not in res.output

    def test_rotseg_runs_without_reference(self, runner):
        res = runner.invoke(cli.main, ["example", "rotseg", "--grid", "0:0.9:10"])
        assert res.exit_code == 0

    def test_deterministic_output(self, runner):
        args = ["example", "trapezoid", "--grid", "log:1e-4:1:25"]
        a = runner.invoke(cli.main, args).output
        b = runner.invoke(cli.main, args).output
        assert a == b

    def test_json_format(self, runner):
        res = runner.invoke(cli.main, ["example", "qmap", "--q", "2", "--format", "json",
                                       "--grid", "0.1:1:5"])
        assert res.exit_code == 0
        payload = json.loads(res.output[: res.output.rfind("}") + 1])
        assert "rows" in payload


    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid", "a:b:c"],
            ["--grid", "0:1:2.5"],
            ["--grid", "1:0.1:0"],
            ["--grid", "log:-1:1:5"],
            ["--grid", "0:1"],
        ],
    )
    def test_bad_tol_or_grid_is_usage_error(self, runner, flags):
        res = runner.invoke(cli.main, ["example", "qmap", *flags])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert f"Invalid value for '{flags[0]}'" in res.output

    def test_coincident_grid_points_report_zero_ratio(self, runner):
        res = runner.invoke(cli.main, ["example", "qmap", "--grid", "0.5:0.5:3", "--format", "json"])
        assert res.exit_code == 0
        assert strict_json(res.stdout)["max_ratio"] == 0.0


class TestVerifyCommand:
    def test_body_suite(self, runner):
        res = runner.invoke(cli.main, ["verify", "body", "--samples", "40", "--seed", "7"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["passed"] is True

    def test_tv_bound_builtin_eps_toy(self, runner):
        res = runner.invoke(cli.main, ["verify", "tv-bound", "--builtin", "eps-toy"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("box", [[[0.0, 0.0], [0.2, 0.2]], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]],
                             ids=["misses-the-images", "three-coordinates"])
    def test_tv_bound_y_box_must_hold_the_images(self, runner, tmp_path, box):
        """L is the volume Lipschitz constant of y_box, valid only when y_box
        holds every image: a box that misses them, or has another dimension,
        is a precondition error."""
        obj = json.loads((PROBLEMS / "eps_toy.json").read_text())
        obj["y_box"] = box
        problem = tmp_path / "small_box.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["verify", "tv-bound", str(problem)])
        assert res.exit_code == 2
        assert "DomainViolation" in res.stderr

    def test_tv_bound_dimension_violation_exits_2(self, runner):
        res = runner.invoke(cli.main, ["verify", "tv-bound", "--builtin", "trapezoid"])
        assert res.exit_code == 2

    def test_missing_problem_is_usage_error(self, runner):
        res = runner.invoke(cli.main, ["verify", "tv-bound"])
        assert res.exit_code == 2

    def test_sandwich_builtin_qmap(self, runner):
        res = runner.invoke(cli.main, ["verify", "sandwich", "--builtin", "qmap"])
        assert res.exit_code == 0

    def test_sandwich_image_below_anchor_dimension_exits_2(self, runner):
        """The toy bilevel image drops from a segment to a point at x = 1."""
        res = runner.invoke(cli.main, ["verify", "sandwich", str(PROBLEMS / "toy_bilevel.json")])
        assert res.exit_code == 2
        assert "DimensionDrift: image dimension 0 is below the anchor dimension 1" in res.stderr

    def test_w1_builtin_toy(self, runner):
        res = runner.invoke(cli.main, ["verify", "w1", "--builtin", "bilevel-toy"])
        assert res.exit_code == 0

    def test_problem_file_schema_error_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "1"}))
        res = runner.invoke(cli.main, ["verify", "tv-bound", str(bad)])
        assert res.exit_code == 2

    def test_nan_tolerance_in_problem_file_exits_2(self, runner, tmp_path):
        # json reads the NaN token, and the schema's exclusiveMinimum lets it through
        problem = tmp_path / "nan_tol.json"
        problem.write_text(json.dumps({**toy_problem([1.0, 0.0]), "tolerances": {"feas_tol": float("nan")}}))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2
        assert "precondition error" in res.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sandwich_on_coincident_grid_points(self, runner, tmp_path):
        """A grid of two coincident points has no difference quotient: the
        largest is reported as 0, with no all-NaN warning."""
        problem = tmp_path / "sandwich.json"
        problem.write_text(json.dumps({
            "version": "1",
            "map": {"kind": "qmap", "q": 3.0},
            "grid": {"start": 0.5, "stop": 0.5, "count": 2},
        }))
        res = runner.invoke(cli.main, ["verify", "sandwich", str(problem)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["metadata"]["max_h_quotient"] == 0.0

    def test_sandwich_problem_file_with_anchor(self, runner, tmp_path):
        problem = tmp_path / "sandwich.json"
        problem.write_text(json.dumps({
            "version": "1",
            "map": {"kind": "qmap", "q": 3.0},
            "grid": {"start": 0.0, "stop": 1.0, "count": 8},
            "anchor": 0.0,
        }))
        res = runner.invoke(cli.main, ["verify", "sandwich", str(problem)])
        assert res.exit_code == 0
        assert json.loads(res.output)["passed"] is True

    @pytest.mark.parametrize("command", [["bilevel"], ["verify", "tv-bound"]])
    def test_unimportable_opaque_integrand_exits_2(self, runner, tmp_path, command):
        for target in ("no_such_module:fn", "math:no_such_attr"):
            obj = toy_problem([1.0, 0.0], count=5)
            obj["belief"] = {"kind": "density", "density": {"kind": "opaque", "callable": target, "dim": 2}}
            problem = tmp_path / "opaque.json"
            problem.write_text(json.dumps(obj))
            res = runner.invoke(cli.main, command + ["--allow-imports", str(problem)])
            assert res.exit_code == 2
            assert "precondition error" in res.output

    @pytest.mark.parametrize("command", [["bilevel"], ["verify", "tv-bound"]])
    def test_opaque_integrand_needs_allow_imports(self, runner, tmp_path, monkeypatch, command):
        """Without the flag nothing is imported: the command exits 2 naming
        the flag, and the module never reaches sys.modules."""
        name = "movingbeliefs_test_density_" + command[-1].replace("-", "_")
        (tmp_path / f"{name}.py").write_text("def density(y):\n    return 1.0 + y[:, 0]\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        obj = toy_problem([1.0, 0.0], count=5)
        obj["belief"] = {"kind": "density", "density": {"kind": "opaque", "callable": f"{name}:density", "dim": 2}}
        problem = tmp_path / "opaque.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, command + [str(problem)])
        assert res.exit_code == 2
        assert "--allow-imports" in res.output
        assert name not in sys.modules

    def test_allow_imports_runs_the_opaque_density(self, runner, tmp_path, monkeypatch):
        name = "movingbeliefs_test_density_allowed"
        (tmp_path / f"{name}.py").write_text("def density(y):\n    return 1.0 + y[:, 0]\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, name, raising=False)
        obj = toy_problem([1.0, 0.0], count=5)
        obj["belief"] = {"kind": "density", "density": {"kind": "opaque", "callable": f"{name}:density", "dim": 2}}
        problem = tmp_path / "opaque.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", "--allow-imports", str(problem)])
        assert res.exit_code == 0, res.output
        assert name in sys.modules
        sys.modules.pop(name)

    def test_w1_dimension_drop_exits_2(self, runner, tmp_path):
        problem = tmp_path / "w1bad.json"
        obj = toy_problem([1.0, 0.0], count=5)
        del obj["leader"]
        problem.write_text(json.dumps(obj))  # grid reaches x=1 where the face is a point
        res = runner.invoke(cli.main, ["verify", "w1", str(problem)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("suite", ["w1", "tv-bound"])
    def test_coordinates_above_the_bound_exit_2(self, runner, tmp_path, suite):
        """Bodies whose coordinates would overflow squared differences are
        refused as input, naming the bound, before any image is built."""
        s = 1e155
        body_a = {"vertices": [[0.0, 0.0], [s, 0.0], [s, s], [0.0, s]]}
        body_b = {"vertices": [[0.0, 0.0], [2 * s, 0.0], [2 * s, s], [0.0, s]]}
        problem = tmp_path / "huge.json"
        problem.write_text(json.dumps({
            "version": "1",
            "map": {"kind": "interp", "body_a": body_a, "body_b": body_b},
            "grid": {"start": 0.0, "stop": 1.0, "count": 5},
        }))
        res = runner.invoke(cli.main, ["verify", suite, str(problem)])
        assert res.exit_code == 2
        assert "precondition error: ValueError" in res.stderr
        assert "at most 1e+150 in magnitude" in res.stderr

    @pytest.mark.parametrize("suite", ["w1", "tv-bound"])
    def test_qhull_failure_exits_2(self, runner, tmp_path, monkeypatch, suite):
        """Two 3-cubes of side 1e60, far below the coordinate bound: Qhull,
        given them at unit size, builds them, and both suites pass with a
        report.  Where Qhull rejects the points with and without its joggle:
        a named error, exit 2."""
        problem = cubes_problem(tmp_path / "cubes.json", 3, 1e60)
        res = runner.invoke(cli.main, ["verify", suite, str(problem)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["passed"] is True

        def reject(*args, **kwargs):
            raise QhullError("rejected")

        monkeypatch.setattr(gk, "ConvexHull", reject)
        with pytest.warns(QhullJoggleWarning):
            res = runner.invoke(cli.main, ["verify", suite, str(problem)])
        assert res.exit_code == 2
        assert "precondition error: QhullFailure" in res.stderr

    @pytest.mark.parametrize("side", [2.0**-20, 2.0**-30, 1e60], ids=["2^-20", "2^-30", "1e60"])
    def test_scaled_cubes_give_the_unit_report_scaled(self, runner, tmp_path, side):
        """The two 3-cubes far from unit size: both suites pass on 3-D
        images, and W1's largest quotient over the side is the unit cubes'."""

        def metadata(suite, s):
            res = runner.invoke(cli.main, ["verify", suite, str(cubes_problem(tmp_path / "cubes.json", 3, s))])
            assert res.exit_code == 0
            report = json.loads(res.stdout)
            assert report["passed"] is True and report["metadata"]["dims"] == [3] * 5
            return report["metadata"]

        metadata("tv-bound", side)
        assert abs(metadata("w1", side)["max_ratio"] / side - metadata("w1", 1.0)["max_ratio"]) <= 1e-12

    @pytest.mark.parametrize("suite", ["w1", "tv-bound"])
    def test_overflowing_4_volume_exits_2(self, tmp_path, suite):
        """Two 4-cubes of side 1e110, within the coordinate bound, whose
        4-volume (1e440) no double holds: a precondition error, exit 2.  It
        runs in a child process: Qhull on the raw coordinates crashed it."""
        res = run_child(["verify", suite, str(cubes_problem(tmp_path / "cubes.json", 4, 1e110))])
        assert res.returncode == 2
        assert res.stderr.startswith("precondition error: ValueError: ") and res.stderr.count("\n") == 1
        assert "4-volume" in res.stderr

    @pytest.mark.parametrize(("resolution", "message"), [
        (1e-4, "100000000 grid cells meet one support"),
        (1e-300, "below 2**-52 of the span"),
        (float("nan"), "must be positive and finite"),
        (0, "schema error: 0 is less than or equal to the minimum of 0"),
    ], ids=["1e-4", "1e-300", "nan", "0"])
    def test_unusable_w1_resolution_exits_2(self, runner, tmp_path, resolution, message):
        """Two unit squares at a resolution no grid serves: 1e-4 meets 1e8
        cells of each square, far above the transport column cap, and is
        refused before a square is cut; 1e-300 and NaN are refused before a
        grid is drawn (no overflow warning); 0 is a schema error."""
        problem = cubes_problem(tmp_path / "squares.json", 2, 1.0)
        problem.write_text(json.dumps({**json.loads(problem.read_text()), "w1_resolution": resolution}))
        res = runner.invoke(cli.main, ["verify", "w1", str(problem)])
        assert res.exit_code == 2
        assert res.stderr.count("\n") == 1 and message in res.stderr

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_body_suite_needs_two_samples(self, runner, samples):
        res = runner.invoke(cli.main, ["verify", "body", "--samples", samples])
        assert res.exit_code == 2


@pytest.mark.parametrize("problem", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
def test_exit_contract_on_every_problem_file(runner, tmp_path, problem):
    """Every verify suite and bilevel on every shipped problem file: no
    uncaught exception, and exit 1 only where the written report failed."""
    commands = [["verify", suite, "--samples", "40"] for suite in ("body", "tv-bound", "sandwich", "w1")]
    for args in [*commands, ["bilevel"]]:
        out = tmp_path / f"{'-'.join(args[:2])}.json"
        res = runner.invoke(cli.main, [*args, str(problem), "--out", str(out)])
        assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
        assert res.exit_code in (0, 1, 2), args
        if res.exit_code == 1:
            assert json.loads(out.read_text())["passed"] is False, args


@pytest.mark.parametrize(
    "args",
    [
        ["example", "trapezoid", "--grid", "log:1e-6:1:12", "--format", "json"],
        ["example", "rotseg", "--grid", "0:0.9:10", "--format", "json"],
        ["verify", "body", "--samples", "2", "--seed", "7"],
        ["verify", "tv-bound", str(PROBLEMS / "eps_toy.json")],
        ["verify", "sandwich", "--builtin", "qmap"],
        ["verify", "w1", str(PROBLEMS / "w1_toy.json")],
        ["bilevel", str(PROBLEMS / "toy_bilevel.json")],
    ],
)
def test_json_output_is_strict(runner, args):
    """Values that were never evaluated or are undefined print as null, not
    as NaN or Infinity."""
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 0
    strict_json(res.stdout)


def _density(dim, terms):
    return {"kind": "density", "density": {"kind": "polynomial", "dim": dim, "terms": [
        {"exponents": list(e), "coeff": c} for e, c in terms]}}


class TestErrorBoundary:
    """Every command's schema, precondition and file errors leave through one
    boundary: exit 2, one stderr line, no traceback."""

    @pytest.mark.parametrize(
        ("key", "value", "needle"),
        [
            ("belief", _density(2, [((1, 0), 1.0), ((0, 0), -0.5)]), "precondition error: PositivityViolation"),
            ("belief", _density(3, [((0, 0, 0), 1.0), ((1, 0, 0), 1.0)]), "precondition error: ValueError"),
            ("g", [0.0, 1.0], "leader g has length 2; the map needs 1"),
            ("h", [1.0], "leader h has length 1; the map needs 2"),
            ("h", [1.0, 0.0, 5.0], "leader h has length 3; the map needs 2"),
        ],
        ids=["negative-density", "three-variate-density", "g-of-length-2", "h-of-length-1", "h-of-length-3"],
    )
    def test_bilevel_bad_input_exits_2(self, runner, tmp_path, key, value, needle):
        obj = json.loads((PROBLEMS / "toy_bilevel.json").read_text())
        (obj if key == "belief" else obj["leader"])[key] = value
        problem = tmp_path / "bad.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.count("\n") == 1 and needle in res.stderr

    def test_out_in_a_missing_directory_exits_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "report.json"
        res = runner.invoke(cli.main, ["verify", "tv-bound", str(PROBLEMS / "eps_toy.json"), "--out", str(out)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    def test_every_point_infeasible_exits_2(self, runner, monkeypatch):
        def eval_map(spec, x, *args):
            raise ParameterInfeasible("skipped on purpose")

        monkeypatch.setattr(cli.sv, "eval_map", eval_map)
        res = runner.invoke(cli.main, ["bilevel", str(PROBLEMS / "toy_bilevel.json")])
        assert res.exit_code == 2
        assert res.stderr.endswith("precondition error: ParameterInfeasible: every grid point was infeasible\n")


class TestBilevelCommand:
    def test_argmin_at_zero_and_closed_form(self, runner, tmp_path):
        """Leader cost h.y with h = (1,0): the follower term is the mean of y1
        over the segment [x,1] x {0}, i.e. (1+x)/2, minimized at x = 0."""
        problem = tmp_path / "toy.json"
        problem.write_text(json.dumps(toy_problem([1.0, 0.0])))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["summary"]["argmin_x"] == 0.0
        for row in payload["rows"]:
            assert row["phi"] == pytest.approx((1.0 + row["x"]) / 2.0, abs=1e-9)
        # the leader objective (1+x)/2 is 1/2-Lipschitz; the empirical
        # estimate should find exactly that
        assert payload["summary"]["lipschitz_estimate"] == pytest.approx(0.5, abs=1e-9)

    def test_argmin_flips_with_negated_cost(self, runner, tmp_path):
        problem = tmp_path / "toy_neg.json"
        problem.write_text(json.dumps(toy_problem([-1.0, 0.0])))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        payload = json.loads(res.output)
        assert payload["summary"]["argmin_x"] == 1.0

    def test_missing_leader_exits_2(self, runner, tmp_path):
        obj = toy_problem([1.0, 0.0])
        del obj["leader"]
        problem = tmp_path / "nolead.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2

    def test_csv_format_column_order(self, runner, tmp_path):
        problem = tmp_path / "toy.json"
        problem.write_text(json.dumps(toy_problem([1.0, 0.0], count=5)))
        res = runner.invoke(cli.main, ["bilevel", str(problem), "--format", "csv"])
        assert res.output.splitlines()[0] == "x,phi,fd,ratio,bound_lhs,bound_rhs,margin"

    def test_density_belief_reweights_objective(self, runner, tmp_path):
        """Density h(y) = 1 + y1 on the fiber [x,1] x {0}: hand integration
        gives E[y1] = (int y(1+y)) / (int (1+y)) over [x,1], e.g. 5/9 at x=0
        and (2/3)/0.875 at x=0.5."""
        obj = toy_problem([1.0, 0.0], count=3)
        obj["belief"] = {
            "kind": "density",
            "density": {
                "kind": "polynomial",
                "dim": 2,
                "terms": [
                    {"exponents": [0, 0], "coeff": 1.0},
                    {"exponents": [1, 0], "coeff": 1.0},
                ],
            },
        }
        problem = tmp_path / "density.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 0
        rows = json.loads(res.output)["rows"]
        assert rows[0]["x"] == 0.0
        assert rows[0]["phi"] == pytest.approx(5.0 / 9.0, abs=1e-9)
        assert rows[1]["x"] == 0.5
        assert rows[1]["phi"] == pytest.approx((2.0 / 3.0) / 0.875, abs=1e-9)

    def test_empty_joint_set_exits_2(self, runner, tmp_path):
        """The extra row -x <= -2 contradicts x <= 1: map construction raises
        Infeasible, which is a precondition error, not a property violation."""
        obj = toy_problem([1.0, 0.0])
        obj["map"] = dict(TOY_MAP, a_matrix=TOY_MAP["a_matrix"] + [[-1.0]],
                          b_matrix=TOY_MAP["b_matrix"] + [[0.0, 0.0]], rhs=TOY_MAP["rhs"] + [-2.0])
        problem = tmp_path / "empty.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2
        assert "Infeasible" in res.output

    def test_nonfinite_rhs_exits_2(self, runner, tmp_path):
        """Python's json reads Infinity; the joint set's rows must be finite,
        and a non-finite one is a precondition error, not a crash."""
        obj = toy_problem([1.0, 0.0])
        obj["map"] = dict(TOY_MAP, rhs=[float("inf")] + TOY_MAP["rhs"][1:])
        problem = tmp_path / "inf.json"
        problem.write_text(json.dumps(obj))
        assert "Infinity" in problem.read_text()
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2
        assert "precondition error" in res.output

    def test_unbounded_joint_set_exits_2(self, runner, tmp_path):
        """Without the rows 0 <= x <= 1 the joint set recedes as x falls; the
        message names a recession direction."""
        obj = toy_problem([1.0, 0.0])
        obj["map"] = dict(TOY_MAP, **{key: TOY_MAP[key][:4] for key in ("a_matrix", "b_matrix", "rhs")})
        problem = tmp_path / "unbounded.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2
        assert "precondition error: Unbounded: recession direction" in res.output

    def test_theta_section_exits_2(self, runner, tmp_path):
        """No command reads a cost family from the file: a ``theta`` section
        is a schema error, not parsed and ignored."""
        obj = toy_problem([1.0, 0.0])
        obj["theta"] = {"terms": [{"coeff": 1.0, "y_exponents": [1, 0]}]}
        problem = tmp_path / "theta.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2
        assert res.stderr.startswith("schema error: ")

    def test_ratios_skip_unevaluated_neighbours(self, runner, tmp_path, monkeypatch):
        """With x = 0.5 skipped, no ratio compares x = 0.25 with x = 0.75.
        The follower term is 1/2 up to x = 0.25 and 1 from x = 0.75 on, so
        the evaluated pairs have slope 1 and the jump across the gap, slope
        2, is no quotient and not the estimate."""
        real_eval = cli.sv.eval_map

        def eval_map(spec, x, *args):
            if x == 0.5:
                raise ParameterInfeasible("skipped on purpose")
            return real_eval(spec, float(x > 0.5), *args)

        monkeypatch.setattr(cli.sv, "eval_map", eval_map)
        obj = toy_problem([1.0, 0.0], count=5)
        obj["leader"]["g"] = [1.0]  # phi = x + 1/2 left of the gap, x + 1 right of it
        problem = tmp_path / "skip.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["summary"]["skipped"] == [0.5]
        assert [row["x"] for row in payload["rows"]] == [0.0, 0.25, 0.75, 1.0]
        assert [row["phi"] for row in payload["rows"]] == pytest.approx([0.5, 0.75, 1.75, 2.0], abs=1e-12)
        assert [row["ratio"] is None for row in payload["rows"]] == [True, False, True, False]
        assert payload["summary"]["lipschitz_estimate"] == pytest.approx(1.0, abs=1e-9)
