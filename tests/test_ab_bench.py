"""Tests for the summary of tools/ab_bench.py on canned benchmark results."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "wall_s", "better": "lower"},
    {"name": "paid_calls", "better": "lower"},
    {"name": "ok_ops", "better": "higher"},
]


def row(pair, side, wall_s, ok_ops=1.0, rc=0, correct=True):
    return {"workload": "w", "pair": pair, "side": side, "rc": rc, "correct": correct,
            "wall_s": wall_s, "paid_calls": 52, "ok_ops": ok_ops}


def canned():
    return [
        row(0, "parent", 3.0), row(0, "change", 2.5),
        row(1, "change", 2.4, ok_ops=0.5), row(1, "parent", 2.9),
        row(2, "parent", 3.1), row(2, "change", 3.2),
        row(3, "parent", 3.3), row(3, "change", 2.6, ok_ops=1.0),
        row(4, "parent", 9.9),  # a pair without its change run is left out
    ]


def test_spread_and_wins_per_metric():
    summary = ab_bench.summarize(canned(), METRICS)
    assert summary["pairs"] == 4
    assert summary["all_correct_rc0"] is True
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 3.05, "q1": 2.975, "q3": 3.15}
    assert wall["change"] == {"median": 2.55, "q1": 2.475, "q3": 2.75}
    assert wall["change_wins"] == 3
    assert wall["gap_exceeds_parent_iqr"] is True


def test_ties_win_nothing_and_higher_is_better_where_declared():
    summary = ab_bench.summarize(canned(), METRICS)
    assert summary["paid_calls"]["change_wins"] == 0
    assert summary["paid_calls"]["gap_exceeds_parent_iqr"] is False
    assert summary["ok_ops"]["change_wins"] == 0
    assert summary["ok_ops"]["change"]["median"] == 1.0


def test_gap_inside_the_parent_iqr_is_not_a_gain():
    runs = [row(0, "parent", 2.0), row(0, "change", 2.9), row(1, "parent", 4.0), row(1, "change", 3.0)]
    wall = ab_bench.summarize(runs, METRICS)["wall_s"]
    assert wall["change_wins"] == 1
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(1.0)
    assert wall["gap_exceeds_parent_iqr"] is False


@pytest.mark.parametrize("bad", [{"rc": 1}, {"correct": False}])
def test_one_failed_or_incorrect_run_clears_all_correct(bad):
    runs = canned()
    runs[3].update(bad)
    assert ab_bench.summarize(runs, METRICS)["all_correct_rc0"] is False


def test_single_pair_has_degenerate_quartiles():
    wall = ab_bench.summarize([row(0, "parent", 3.0), row(0, "change", 2.0)], METRICS)["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert wall["change_wins"] == 1
