"""The verdicts of `tools/paired_bench.py` on made-up pairs: a gain needs
nine of every ten pairs and a median gap wider than the parent's quartiles,
and the bound is a fraction of the parent's median in the worse direction."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "paired_bench", ROOT / "tools" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [37.30, 37.32, 37.34, 37.35, 37.35, 37.36, 37.37, 37.38, 37.40, 37.42]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_parent_quartiles():
    compare = _tool().compare
    change = [p - 0.55 for p in PARENT]
    result = compare(PARENT, change, "lower", 0.05)
    assert (result["wins"], result["pairs"], result["gain"]) == (10, 10, True)
    # two pairs lost: 8 of 10 is not enough, however wide the gap
    lost = change[:8] + PARENT[8:9] + [PARENT[9] + 1.0]
    assert compare(PARENT, lost, "lower", 0.05)["gain"] is False
    # ten wins by less than the parent's interquartile range of 0.04
    close = [p - 0.01 for p in PARENT]
    result = compare(PARENT, close, "lower", 0.05)
    assert (result["wins"], result["gain"]) == (10, False)


def test_ties_count_for_neither_side_and_higher_is_better_where_declared():
    compare = _tool().compare
    result = compare([1.0] * 10, [1.0] * 10, "higher", 0.01)
    assert (result["wins"], result["gain"], result["within_bound"]) == (0, False, True)
    # ok_frac falling from 1 to 0.98 is 2% worse, past a 1% bound
    result = compare([1.0] * 10, [0.98] * 10, "higher", 0.01)
    assert result["worse"] == pytest.approx(0.02)
    assert result["within_bound"] is False


def test_the_bound_is_a_fraction_of_the_parent_median():
    compare = _tool().compare
    slower = [p * 1.04 for p in PARENT]
    assert compare(PARENT, slower, "lower", 0.05)["within_bound"] is True
    assert compare(PARENT, slower, "lower", 0.03)["within_bound"] is False
