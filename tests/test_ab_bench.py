"""Tests for the summary of tools/ab_bench.py on canned benchmark results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "paid_calls", "better": "lower", "bound": 0.05},
    {"name": "ok_ops", "better": "higher", "bound": 0.1},
]


def row(pair, side, wall_s, ok_ops=1.0, rc=0, correct=True, attempted=40):
    return {"workload": "w", "pair": pair, "side": side, "rc": rc, "correct": correct,
            "attempted": attempted, "failed": round((1.0 - ok_ops) * attempted),
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


def paired(parent_walls, change_walls, change_ok_ops=1.0):
    return [r for pair, (a, b) in enumerate(zip(parent_walls, change_walls))
            for r in (row(pair, "parent", a), row(pair, "change", b, ok_ops=change_ok_ops))]


@pytest.mark.parametrize(
    "runs, wall_verdict",
    [
        pytest.param(canned(), "within_bound", id="faster"),
        pytest.param(paired([2.0, 2.0, 2.0], [2.5, 2.5, 2.5]), "within_bound", id="worse-by-the-bound-exactly"),
        pytest.param(paired([2.0, 2.0, 2.0], [2.6, 2.4, 2.6]), "exceeds_bound", id="worse-past-the-bound"),
        # the parent's quartiles 1.75-3.25 span 60% of its median 2.5, past the 25% bound
        pytest.param(paired([1.0, 2.0, 3.0, 4.0], [0.9, 1.0, 1.1, 1.2]), "unresolved", id="parent-spread-too-wide"),
        pytest.param(paired([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.9]), "within_bound", id="every-change-run-better"),
    ],
)
def test_verdict_holds_each_metric_to_its_bound(runs, wall_verdict):
    summary = ab_bench.summarize(runs, METRICS)
    assert summary["wall_s"]["verdict"] == wall_verdict
    assert summary["paid_calls"]["verdict"] == "within_bound"


def test_verdict_reads_higher_as_better_where_declared():
    summary = ab_bench.summarize(paired([2.0, 2.0, 2.0], [2.0, 2.0, 2.0], change_ok_ops=0.89), METRICS)
    assert summary["ok_ops"]["verdict"] == "exceeds_bound"
    assert ab_bench.summarize(canned(), METRICS)["ok_ops"]["verdict"] == "within_bound"


def test_gap_counts_only_in_the_better_direction():
    # the change is slower by 1.0 against a parent IQR of 0.125: a regression, not a gain
    runs = paired([2.0, 2.1, 2.2, 2.0], [3.0, 3.1, 3.2, 3.0])
    wall = ab_bench.summarize(runs, METRICS)["wall_s"]
    assert wall["change_wins"] == 0
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == pytest.approx(0.125)
    assert wall["gap_exceeds_parent_iqr"] is False
    assert wall["gain_shown"] is False
    # on a higher-is-better metric a lower change median is the regression
    ok_ops = ab_bench.summarize(paired([2.0] * 3, [2.0] * 3, change_ok_ops=0.5), METRICS)["ok_ops"]
    assert ok_ops["gap_exceeds_parent_iqr"] is False


def spaced(n_pairs, n_wins, gap=1.0, change_ok_ops=1.0):
    """Parent walls 10, 10.1, ...; the change is `gap` faster in its first `n_wins` pairs and as fast in the rest."""
    parent = [10.0 + 0.1 * i for i in range(n_pairs)]
    return paired(parent, [p - gap if i < n_wins else p for i, p in enumerate(parent)], change_ok_ops)


@pytest.mark.parametrize(
    "runs, shown",
    [
        pytest.param(spaced(10, 10), True, id="every-pair-won"),
        pytest.param(spaced(10, 9), True, id="nine-of-ten-won"),
        pytest.param(spaced(10, 8), False, id="eight-of-ten-won"),
        pytest.param(spaced(10, 10, gap=0.1), False, id="gap-inside-the-parent-iqr"),
        pytest.param(canned(), False, id="three-of-four-won"),
        pytest.param(spaced(3, 3), False, id="three-pairs-are-too-few"),
        pytest.param(spaced(10, 10, change_ok_ops=0.99), False, id="more-operations-fail"),
    ],
)
def test_gain_shown_needs_ten_pairs_nine_tenths_won_a_gap_past_the_iqr_and_no_more_failures(runs, shown):
    summary = ab_bench.summarize(runs, METRICS)
    assert summary["wall_s"]["gain_shown"] is shown
    assert summary["paid_calls"]["gain_shown"] is False


def test_each_side_reports_its_median_attempted_count():
    runs = [row(0, "parent", 3.0, attempted=40), row(0, "change", 2.0, attempted=45),
            row(1, "parent", 3.0, attempted=42), row(1, "change", 2.0, attempted=49),
            row(2, "parent", 3.0, attempted=41), row(2, "change", 2.0, attempted=47),
            row(3, "parent", 3.0, attempted=99)]  # a pair without its change run is left out
    assert ab_bench.summarize(runs, METRICS)["attempted"] == {"parent": 41, "change": 47}


def test_each_run_row_keeps_its_attempted_and_failed_counts(tmp_path, monkeypatch):
    result = {"correct": True, "attempted": 44, "failed": 1,
              "metrics": {"wall_s": {"value": 0.5}, "ok_ops": {"value": 43 / 44}}}

    def fake_run(cmd, cwd, capture_output, text):
        return subprocess.CompletedProcess(cmd, 1, stdout="# log\n" + json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    got = ab_bench.run_bench(tmp_path, "w", 2, 25, 0)
    assert got == {"rc": 1, "correct": True, "attempted": 44, "failed": 1, "wall_s": 0.5, "ok_ops": 43 / 44}


def test_a_second_seed_is_kept_beside_the_first(tmp_path, monkeypatch):
    spec = {"run_seconds": 25, "end_to_end": METRICS, "per_layer": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    env = {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2, "cpu_model": "cpu"}
    for seed in (2, 3):
        result = tmp_path / ".perfbench" / f"w-seed{seed}" / "result-trace0.json"
        result.parent.mkdir(parents=True)
        result.write_text(json.dumps({"env": env}), encoding="utf-8")

    def fake_run(checkout, workload, seed, seconds, trace):
        return {"rc": 0, "correct": True, "attempted": 40, "failed": 0,
                "wall_s": float(seed), "paid_calls": 52, "ok_ops": 1.0}

    monkeypatch.setattr(ab_bench, "run_bench", fake_run)
    out = tmp_path / "BENCH_x.json"
    for seed in (2, 3, 2):
        args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
                "--seed", str(seed), "--pairs", "2", "--out", str(out)]
        assert ab_bench.main(args) == 0
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(bench["end_to_end"]) == ["w seed 2", "w seed 3"]
    assert bench["end_to_end"]["w seed 3"]["seed"] == 3
    assert bench["end_to_end"]["w seed 3"]["wall_s"]["parent"]["median"] == 3.0
    # the rerun of seed 2 replaced its own 4 rows and kept seed 3's
    assert sorted((row["seed"], row["pair"], row["side"]) for row in bench["runs"]) == sorted(
        (seed, pair, side) for seed in (2, 3) for pair in (0, 1) for side in ab_bench.SIDES
    )
