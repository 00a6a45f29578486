"""scripts/bench.py: the readings of ``compare`` on synthetic per-pair values, the pair
order, and a record of two worktrees; scripts/kernels.py: a row the library cannot run."""

import importlib.util
import json
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

_path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _path)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PARENT = [40.0, 40.5, 41.0, 39.5, 40.2, 40.8, 39.8, 40.1, 40.6, 40.3]  # quartiles 40.025 .. 40.575
CLEAN = {"parent": 0, "change": 0}


def test_ten_wins_beyond_the_spread_is_a_gain():
    out = bench.compare(PARENT, [p - 1.0 for p in PARENT], "lower", CLEAN)
    assert out["wins"] == {"change": 10, "parent": 0}
    assert out["gap"] == pytest.approx(-1.0)
    assert out["parent_spread"] == pytest.approx(0.55)
    assert out["verdict"] == "gain"
    assert out["change"]["runs"] == [p - 1.0 for p in PARENT]


def test_ties_count_for_neither_side():
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9]]
    assert bench.compare(PARENT, nine, "lower", CLEAN)["wins"] == {"change": 9, "parent": 0}
    assert bench.compare(PARENT, nine, "lower", CLEAN)["verdict"] == "gain"
    eight = [p - 1.0 for p in PARENT[:8]] + PARENT[8:]
    assert bench.compare(PARENT, eight, "lower", CLEAN)["verdict"] == "no gain"


def test_eight_wins_is_no_gain():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    out = bench.compare(PARENT, change, "lower", CLEAN)
    assert out["wins"] == {"change": 8, "parent": 2}
    assert out["verdict"] == "no gain"


def test_ten_wins_inside_the_spread_is_no_gain():
    out = bench.compare(PARENT, [p - 0.5 for p in PARENT], "lower", CLEAN)
    assert out["wins"]["change"] == 10
    assert -out["gap"] < out["parent_spread"]
    assert out["verdict"] == "no gain"


def test_higher_is_better_reverses_the_sides():
    up = [p + 1.0 for p in PARENT]
    assert bench.compare(PARENT, up, "higher", CLEAN)["verdict"] == "gain"
    assert bench.compare(PARENT, up, "lower", CLEAN)["wins"] == {"change": 0, "parent": 10}
    assert bench.compare(PARENT, up, "lower", CLEAN)["verdict"] == "no gain"


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        bench.compare(PARENT, PARENT[:9], "lower", CLEAN)


def test_fewer_than_ten_pairs_is_no_gain():
    out = bench.compare(PARENT[:9], [p - 1.0 for p in PARENT[:9]], "lower", CLEAN)
    assert out["wins"] == {"change": 9, "parent": 0}
    assert -out["gap"] > out["parent_spread"]
    assert out["verdict"] == "no gain"
    assert bench.compare(PARENT[:2], [p - 9.0 for p in PARENT[:2]], "lower", CLEAN)["verdict"] == "no gain"


def test_more_bad_runs_on_the_change_is_no_gain():
    faster = [p - 1.0 for p in PARENT]
    assert bench.compare(PARENT, faster, "lower", {"parent": 0, "change": 1})["verdict"] == "no gain"
    assert bench.compare(PARENT, faster, "lower", {"parent": 1, "change": 1})["verdict"] == "gain"


def test_worse_by_more_than_the_bound_is_a_regression():
    # the bound 0.2 of the parent's median 40.25 is 8.05
    assert bench.compare(PARENT, [p + 10.0 for p in PARENT], "lower", CLEAN, 0.2)["regression"] == "regression"
    assert bench.compare(PARENT, [p + 1.0 for p in PARENT], "lower", CLEAN, 0.2)["regression"] == "no regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the bound 0.01 of the parent's median is 0.4025, less than its quartile spread 0.55
    assert bench.compare(PARENT, PARENT, "lower", CLEAN, 0.01)["regression"] == "unresolved"
    out = bench.compare(PARENT, [p - 0.5 for p in PARENT], "lower", CLEAN, 0.01)
    assert out["wins"]["change"] == 10  # every pair won, but not every run better than every parent run
    assert out["regression"] == "unresolved"


def test_every_run_better_resolves_a_wide_spread():
    out = bench.compare(PARENT, [p - 1.6 for p in PARENT], "lower", CLEAN, 0.01)
    assert max(out["change"]["runs"]) < min(out["parent"]["runs"])
    assert out["parent_spread"] > 0.01 * out["parent"]["median"]
    assert out["regression"] == "no regression"


def test_higher_is_better_reverses_the_regression():
    down, up = [p - 10.0 for p in PARENT], [p + 1.6 for p in PARENT]
    assert bench.compare(PARENT, down, "higher", CLEAN, 0.2)["regression"] == "regression"
    assert bench.compare(PARENT, down, "lower", CLEAN, 0.2)["regression"] == "no regression"
    assert bench.compare(PARENT, up, "higher", CLEAN, 0.01)["regression"] == "no regression"
    assert bench.compare(PARENT, up, "lower", CLEAN, 0.01)["regression"] == "regression"


def test_pairs_alternate_the_side_that_goes_first(monkeypatch):
    calls = []

    def run(tree, workload, seed, seconds, trace):
        calls.append((tree, workload, seed, seconds, trace))
        return {"tree": tree, "seed": seed}

    monkeypatch.setattr(bench, "run", run)
    runs, first = bench.pairs({"parent": "P", "change": "C"}, "sweep", 20)
    assert first == ["parent", "change"] * 5
    assert calls == [(tree, "sweep", i, 20, 0) for i in range(1, 11) for tree in ("PC" if i % 2 else "CP")]
    assert runs == {side: [{"tree": tree, "seed": i} for i in range(1, 11)]
                    for side, tree in (("parent", "P"), ("change", "C"))}


def _worktrees(root):
    out = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=root, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [line for line in out.splitlines() if line.startswith("worktree ")]


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository of one commit with a one-workload BENCHMARK.json, as bench.ROOT."""
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2}]}))
    for cmd in (["init", "-q"], ["add", "."],
                ["-c", "user.name=bench", "-c", "user.email=bench@example.com", "commit", "-qm", "one"]):
        subprocess.run(["git", *cmd], cwd=root, check=True)
    monkeypatch.setattr(bench, "ROOT", root)
    handler = signal.getsignal(signal.SIGTERM)
    yield root
    signal.signal(signal.SIGTERM, handler)


def _fake_runs(monkeypatch, kernel_rows):
    """Replace ``bench.last_line`` by correct runs, the parent's slower, and
    the kernel rows ``kernel_rows[side]``; the worktrees it was called in."""
    seen = []

    def last_line(cmd, cwd, env=None):
        assert (cwd / "BENCHMARK.json").exists()  # a checked-out worktree
        seen.append(cwd)
        if cmd[1].endswith("kernels.py"):
            assert cmd[1] == str(cwd.parent / "change" / "scripts" / "kernels.py")
            return kernel_rows[cwd.name]
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"op_ms_p50": {"value": 2.0 if cwd.name == "parent" else 1.0}}}

    monkeypatch.setattr(bench, "last_line", last_line)
    return seen


def test_a_kernel_row_absent_on_one_side_is_kept_as_absent(repo, monkeypatch, tmp_path):
    seen = _fake_runs(monkeypatch, {"parent": {"row": {"absent": "AttributeError"}},
                                    "change": {"row": {"median": 1.0}}})
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["kernels"] == {"parent": {"row": {"absent": "AttributeError"}}, "change": {"row": {"median": 1.0}}}
    assert record["commits"]["parent"] == record["commits"]["change"]
    w = record["workloads"]["w"]
    assert w["first"] == ["parent", "change"] * 5
    assert w["correct"] == {"parent": [True] * 11, "change": [True] * 11}
    assert w["end_to_end"]["op_ms_p50"]["verdict"] == "gain"  # every pair won, by more than no spread
    assert w["end_to_end"]["op_ms_p50"]["regression"] == "no regression"
    assert len(_worktrees(repo)) == 1
    assert not any(tree.exists() for tree in seen)


def test_a_kernel_row_absent_on_the_change_fails_the_record(repo, monkeypatch, tmp_path):
    _fake_runs(monkeypatch, {"parent": {"row": {"median": 1.0}}, "change": {"row": {"absent": "ValueError"}}})
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["kernels"]["change"] == {"row": {"absent": "ValueError"}}
    assert len(_worktrees(repo)) == 1


def test_uncommitted_edits_are_refused(repo, monkeypatch, tmp_path):
    seen = _fake_runs(monkeypatch, {side: {"row": {"median": 1.0}} for side in ("parent", "change")})
    (repo / "BENCHMARK.json").write_text((repo / "BENCHMARK.json").read_text() + "\n")
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD", "--out", str(out)]) == 3
    assert not out.exists() and not seen
    assert len(_worktrees(repo)) == 1


def test_an_empty_run_output_is_a_failed_run(repo, monkeypatch, tmp_path):
    real = subprocess.run

    def run(cmd, **kwargs):
        if cmd[0] == sys.executable:
            return subprocess.CompletedProcess(cmd, 0, stdout="")
        return real(cmd, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD", "--out", str(out)]) == 3
    assert not out.exists()
    assert len(_worktrees(repo)) == 1


def test_a_kernel_row_the_library_cannot_build_or_run_is_absent():
    spec = importlib.util.spec_from_file_location("kernels", _path.parent / "kernels.py")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    rows = [("unbuilt", lambda: (kernels.gk.no_such_kernel, lambda: ())),
            ("refused", lambda: (len, lambda: (1, 2))),
            ("timed", lambda: (kernels.gk.volume, kernels.hulls(np.eye(3)[:, :2])))]
    record = kernels.measure(rows, 0.0)
    assert record["unbuilt"] == {"absent": "AttributeError"}
    assert record["refused"] == {"absent": "TypeError"}
    assert record["timed"]["samples"] >= 5
