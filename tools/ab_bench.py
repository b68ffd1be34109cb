"""Alternating A/B runs of the benchmark in two checkouts, summarised as a BENCH_*.json.

    python3 tools/ab_bench.py --parent ../parent --change . \
        --workload surrogate-6k --seed 8 --pairs 10 --out BENCH_x.json

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from that checkout's root, one after the
other; T is the `run_seconds` of the change's BENCHMARK.json. Even pairs
run the parent first, odd pairs the change. The last line of each run's
standard output is its JSON result. `--out` gets one
row per run under `runs`, and under `end_to_end[W]`, per metric, the
median and quartiles of each side, the number of pairs the change won,
whether a gain is shown (`gain_shown`) and the no-regression `verdict`
against the metric's `bound`.
An existing `--out` file is updated in place: the rows and summary of
other workloads are kept, those of W are replaced.

`--trace 1` runs the traced benchmark instead and stores, per side, the
median of each per-layer metric under `per_layer[W]`; the end-to-end
summary is left alone.

Standard library only, so it runs against any two checkouts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_GAIN_PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in `checkout`: its exit code and the metrics of its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"ab_bench: no result line from {checkout} (exit {done.returncode})")
    row = {"rc": done.returncode, "correct": bool(result["correct"])}
    row.update({name: entry["value"] for name, entry in result["metrics"].items()})
    return row


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _spread(values: list[float]) -> dict:
    q1, median, q3 = _quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """The no-regression verdict on one metric, `bound` relative to the parent's median.

    `unresolved`: the parent's q3 - q1 exceeds `bound` times its median,
    and not every change run beats every parent run. Otherwise
    `within_bound` when the change's median is no worse than the
    parent's by more than `bound` times the parent's median, else
    `exceeds_bound`.
    """
    sign = 1 if lower else -1  # sign * (a - b) > 0: a is worse than b
    q1, median, q3 = _quartiles(parent)
    all_beat = max(sign * value for value in change) < min(sign * value for value in parent)
    if q3 - q1 > bound * abs(median) and not all_beat:
        return "unresolved"
    worse_by = sign * (statistics.median(change) - median)
    return "within_bound" if worse_by <= bound * abs(median) else "exceeds_bound"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric spread of each side, pair wins and verdict of the change, for one workload's runs.

    `runs` are rows with `pair`, `side`, `rc`, `correct` and one value per
    metric; `metrics` are BENCHMARK.json end-to-end entries (`name`,
    `better`, `bound`). A pair is won only by a strictly better value.
    `gap_exceeds_parent_iqr` says whether the change's median is better
    than the parent's by more than the parent's q3 - q1. `gain_shown` is
    the rule a claimed gain must meet: that holds, there are at least
    `MIN_GAIN_PAIRS` pairs, the change won at least 9 of every 10 of them,
    and its median `ok_ops` is no lower than the parent's. `verdict` is
    `verdict()` on the same runs.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for row in runs:
        by_pair.setdefault(row["pair"], {})[row["side"]] = row
    pairs = [p for _, p in sorted(by_pair.items()) if set(p) == set(SIDES)]
    out: dict = {
        "pairs": len(pairs),
        "all_correct_rc0": all(row["correct"] and row["rc"] == 0 for row in runs),
    }
    ok_ops = {side: statistics.median(p[side]["ok_ops"] for p in pairs) for side in SIDES}
    may_claim = len(pairs) >= MIN_GAIN_PAIRS and ok_ops["change"] >= ok_ops["parent"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        entry = {side: _spread(values[side]) for side in SIDES}
        entry["change_wins"] = sum(
            (p["change"][name] < p["parent"][name]) if lower else (p["change"][name] > p["parent"][name])
            for p in pairs
        )
        parent = entry["parent"]
        better_by = (parent["median"] - entry["change"]["median"]) * (1 if lower else -1)
        entry["gap_exceeds_parent_iqr"] = better_by > parent["q3"] - parent["q1"]
        entry["gain_shown"] = (
            may_claim and entry["gap_exceeds_parent_iqr"] and 10 * entry["change_wins"] >= 9 * len(pairs)
        )
        entry["verdict"] = verdict(values["parent"], values["change"], lower, metric["bound"])
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout without the change")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--what", default=None, help="one line naming the change, stored as `what`")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            checkout = args.parent if side == "parent" else args.change
            row = {"workload": args.workload, "pair": pair, "side": side}
            row.update(run_bench(checkout, args.workload, args.seed, seconds, args.trace))
            runs.append(row)
            print(f"# pair {pair} {side}: rc {row['rc']} correct {row['correct']}"
                  f" wall_s {row.get('wall_s', '-')}", flush=True)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if args.what:
        bench["what"] = args.what
    bench["method"] = (
        "parent and change checkouts run one after the other, alternating which runs first; "
        "medians and inclusive quartiles over the runs of each side"
    )
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace {args.trace}"
    result = args.change / ".perfbench" / f"{args.workload}-seed{args.seed}" / f"result-trace{args.trace}.json"
    env = json.loads(result.read_text(encoding="utf-8"))["env"]
    bench["env"] = {key: env[key] for key in ("python", "numpy", "scipy", "nproc", "cpu_model")}
    if args.trace:
        entry = {"command": command, "seed": args.seed, "pairs": args.pairs,
                 "all_correct_rc0": all(row["correct"] and row["rc"] == 0 for row in runs)}
        for side in SIDES:
            rows = [r for r in runs if r["side"] == side]
            names = [m["name"] for m in spec["per_layer"]]
            entry[side] = {name: round(statistics.median(r[name] for r in rows), 4) for name in names}
        bench.setdefault("per_layer", {})[args.workload] = entry
    else:
        bench["command"] = command
        bench.setdefault("end_to_end", {})[args.workload] = {
            "seed": args.seed, **summarize(runs, spec["end_to_end"]),
        }
        bench["runs"] = [r for r in bench.get("runs", []) if r["workload"] != args.workload] + runs
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    summary = bench["per_layer" if args.trace else "end_to_end"][args.workload]
    print(json.dumps(summary))
    return 0 if summary["all_correct_rc0"] else 1


if __name__ == "__main__":
    sys.exit(main())
