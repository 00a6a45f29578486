"""CLI contract tests: exit codes, formats, determinism, problem-file parsing."""

import json
import pathlib
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from movingbeliefs import cli
from movingbeliefs.errors import ParameterInfeasible

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

    def test_theta_family_evaluates(self):
        th = cli.ThetaPoly.from_json(
            {"terms": [{"coeff": 2.0, "x_exponent": 1, "y_exponents": [1, 0]}]}
        )
        f = th(0.5)
        assert f(np.array([[3.0, 0.0]]))[0] == pytest.approx(2.0 * 0.5 * 3.0)

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

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_body_suite_needs_two_samples(self, runner, samples):
        res = runner.invoke(cli.main, ["verify", "body", "--samples", samples])
        assert res.exit_code == 2


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

    def test_inconsistent_theta_exits_2(self, runner, tmp_path):
        obj = toy_problem([1.0, 0.0])
        obj["theta"] = {"terms": [{"coeff": 1.0, "y_exponents": [1, 0]}, {"coeff": 1.0, "y_exponents": [1]}]}
        problem = tmp_path / "theta.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 2

    def test_ratios_skip_unevaluated_neighbours(self, runner, tmp_path, monkeypatch):
        """With x = 0.5 skipped, no ratio compares x = 0.25 with x = 0.75."""
        real_eval = cli.sv.eval_map

        def eval_map(spec, x, *args):
            if x == 0.5:
                raise ParameterInfeasible("skipped on purpose")
            return real_eval(spec, x, *args)

        monkeypatch.setattr(cli.sv, "eval_map", eval_map)
        obj = toy_problem([1.0, 0.0], count=5)
        obj["leader"]["g"] = [1.0]  # phi = x + (1 + x)/2 on every evaluated point
        problem = tmp_path / "skip.json"
        problem.write_text(json.dumps(obj))
        res = runner.invoke(cli.main, ["bilevel", str(problem)])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["summary"]["skipped"] == [0.5]
        assert [row["x"] for row in payload["rows"]] == [0.0, 0.25, 0.75, 1.0]
        assert [row["ratio"] is None for row in payload["rows"]] == [True, False, True, False]
        assert payload["summary"]["lipschitz_estimate"] == pytest.approx(1.5, abs=1e-9)
