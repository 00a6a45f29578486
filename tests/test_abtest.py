"""The verdict rule of scripts/abtest.py on synthetic per-pair values."""

import importlib.util
import pathlib

import pytest

_path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "abtest.py"
_spec = importlib.util.spec_from_file_location("abtest", _path)
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)

PARENT = [40.0, 40.5, 41.0, 39.5, 40.2, 40.8, 39.8, 40.1, 40.6, 40.3]  # quartiles 40.025 .. 40.575
CLEAN = {"parent": 0, "change": 0}


def test_ten_wins_beyond_the_spread_is_a_gain():
    out = abtest.compare(PARENT, [p - 1.0 for p in PARENT], "lower", CLEAN)
    assert out["wins"] == {"change": 10, "parent": 0}
    assert out["gap"] == pytest.approx(-1.0)
    assert out["parent_spread"] == pytest.approx(0.55)
    assert out["verdict"] == "gain"
    assert out["change"]["runs"] == [p - 1.0 for p in PARENT]


def test_ties_count_for_neither_side():
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9]]
    assert abtest.compare(PARENT, nine, "lower", CLEAN)["wins"] == {"change": 9, "parent": 0}
    assert abtest.compare(PARENT, nine, "lower", CLEAN)["verdict"] == "gain"
    eight = [p - 1.0 for p in PARENT[:8]] + PARENT[8:]
    assert abtest.compare(PARENT, eight, "lower", CLEAN)["verdict"] == "no gain"


def test_eight_wins_is_no_gain():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    out = abtest.compare(PARENT, change, "lower", CLEAN)
    assert out["wins"] == {"change": 8, "parent": 2}
    assert out["verdict"] == "no gain"


def test_ten_wins_inside_the_spread_is_no_gain():
    out = abtest.compare(PARENT, [p - 0.5 for p in PARENT], "lower", CLEAN)
    assert out["wins"]["change"] == 10
    assert -out["gap"] < out["parent_spread"]
    assert out["verdict"] == "no gain"


def test_higher_is_better_reverses_the_sides():
    up = [p + 1.0 for p in PARENT]
    assert abtest.compare(PARENT, up, "higher", CLEAN)["verdict"] == "gain"
    assert abtest.compare(PARENT, up, "lower", CLEAN)["wins"] == {"change": 0, "parent": 10}
    assert abtest.compare(PARENT, up, "lower", CLEAN)["verdict"] == "no gain"


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        abtest.compare(PARENT, PARENT[:9], "lower", CLEAN)


def test_fewer_than_ten_pairs_is_no_gain():
    out = abtest.compare(PARENT[:9], [p - 1.0 for p in PARENT[:9]], "lower", CLEAN)
    assert out["wins"] == {"change": 9, "parent": 0}
    assert -out["gap"] > out["parent_spread"]
    assert out["verdict"] == "no gain"
    assert abtest.compare(PARENT[:2], [p - 9.0 for p in PARENT[:2]], "lower", CLEAN)["verdict"] == "no gain"


def test_more_bad_runs_on_the_change_is_no_gain():
    faster = [p - 1.0 for p in PARENT]
    assert abtest.compare(PARENT, faster, "lower", {"parent": 0, "change": 1})["verdict"] == "no gain"
    assert abtest.compare(PARENT, faster, "lower", {"parent": 1, "change": 1})["verdict"] == "gain"
