"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload surrogate-6k --seed 1 --seconds 25 --trace 0

Run from the repository root. It imports exsel from `src/` of the same
checkout, builds the workload's inputs from the seed, and repeats a
cold pipeline run until `--seconds` have passed. `--trace 0` reports
the end-to-end metrics of untraced runs; `--trace 1` alternates
untraced and traced runs and reports the per-layer metrics and the
tracing overhead. Every run's outputs are checked: artifact hashes,
best fitness and exact counts must agree between runs, and with
`perfbench/reference.json` when it holds this workload and seed. The
last line of standard output is the JSON result; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3


def _use_checkout_sources() -> None:
    """Import exsel from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "exsel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no exsel sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import exsel.pipeline.runner; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    """Time to import the pipeline in a fresh interpreter, interpreter start-up excluded."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def environment(seed: int, w) -> dict:
    import numpy
    import scipy
    from workloads import MAX_IN_FLIGHT

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": w.name,
        "seed": seed,
        "injected_latency_ms": w.latency_s * 1000.0,
        "max_in_flight": MAX_IN_FLIGHT,
    }


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def gate(w, seed: int, reps: list, reference: dict) -> list[str]:
    """Cross-run checks: every run matches the first, and the stored reference."""
    from workloads import compare_fingerprints

    problems = []
    done = [r for r in reps if r.fingerprint]
    for index, rep in enumerate(done[1:], start=2):
        problems += compare_fingerprints(f"run {index} vs run 1", done[0].fingerprint, rep.fingerprint)
    if not done:
        return problems
    stored = reference.get(w.name, {}).get(str(seed))
    if stored is not None:
        problems += compare_fingerprints("reference", stored, done[0].fingerprint)
    uninterrupted = reference.get("llm-mock", {}).get(str(seed))
    if w.crash_after is not None and uninterrupted is not None:
        # resume must reproduce the run that never crashed, byte for byte
        problems += compare_fingerprints(
            "uninterrupted llm-mock run", uninterrupted, done[0].fingerprint, keys=("artifacts", "best_fitness")
        )
    return problems


def per_layer(w, reps: list) -> dict[str, float]:
    from exsel.pipeline import STAGES
    from probes import layer_metrics
    from workloads import MAX_IN_FLIGHT

    traced = [r for r in reps if r.traced and r.fingerprint]
    untraced = [r for r in reps if not r.traced]
    rows = []
    for rep in traced:
        counts = rep.fingerprint["counts"]
        row = layer_metrics(
            rep.spans,
            latency_s=w.latency_s,
            max_in_flight=MAX_IN_FLIGHT,
            transport_chat_s=sum(m.complete_s for m in rep.models),
            generations=counts["evolve.generations"],
        )
        row.update({key: value for key, value in counts.items() if key != "paid_calls"})
        row["client.inflight_max"] = max(m.inflight_max for m in rep.models)
        for stage in STAGES:
            row[f"runner.stage.{stage}_s"] = rep.stage_seconds.get(stage, 0.0)
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]} if rows else {}
    if traced and untraced:
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
        )
    return metrics


def self_seconds_by_layer(reps: list) -> dict[str, float]:
    from probes import self_seconds

    rows = [self_seconds(r.spans) for r in reps if r.traced]
    names = sorted({name for row in rows for name in row})
    return {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}


def evolve_seconds_per_k(w, reps: list) -> dict[str, float]:
    traced = [r for r in reps if r.traced]
    return {
        str(k): statistics.median(
            sum(s["end"] - s["start"] for s in r.spans if s["name"] == "evolve.evolve" and s["attrs"]["k"] == k)
            for r in traced
        )
        for k in w.pool_sizes
    } if traced else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's fingerprint in reference.json when the workload and seed have none",
    )
    args = parser.parse_args(argv)
    # the client logs every retry; keep the records, drop the terminal output
    logging.getLogger("exsel").addHandler(logging.NullHandler())

    _use_checkout_sources()
    from workloads import WORKLOADS, run_once, write_inputs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    base = WORK / f"{w.name}-seed{args.seed}"
    out_dir = base / "run"

    # set-up: imports plus fixture and config, several times; setup_s is the median
    setup = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        start = time.perf_counter()
        config_path = write_inputs(w, base / "inputs", out_dir, args.seed)
        setup.append({"import_s": import_s, "inputs_s": time.perf_counter() - start})

    reps = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_once(w, config_path, out_dir, traced)
        reps.append(rep)
        print(f"# run {len(reps)}{' traced' if traced else ''}: wall {rep.wall_s:.4f} s"
              f"{' FAILED ' + '; '.join(rep.failures) if rep.failures else ''}", flush=True)
        if time.perf_counter() >= deadline and (not args.trace or len(reps) >= 2):
            break

    reference = load_reference()
    problems = [f"run {i}: {msg}" for i, rep in enumerate(reps, start=1) for msg in rep.failures]
    problems += gate(w, args.seed, reps, reference)
    attempted = sum(max(rep.runs, 1) for rep in reps)
    failed = sum(max(rep.runs, 1) for rep in reps if rep.failures)
    if problems and not failed:
        failed = 1  # a mismatch between runs fails one of them
    correct = not problems

    if args.trace:
        metrics = per_layer(w, reps)
        wanted = spec["per_layer"]
    else:
        untraced = [r.wall_s for r in reps if not r.traced]
        fp = next((r.fingerprint for r in reps if r.fingerprint), {"counts": {"paid_calls": 0}})
        metrics = {
            "setup_s": statistics.median(part["import_s"] + part["inputs_s"] for part in setup),
            "wall_s": statistics.median(untraced),
            "paid_calls": fp["counts"]["paid_calls"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    result_metrics = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    env = environment(args.seed, w)
    missing = sorted({name for rep in reps for name in rep.missing_probes})
    details = {
        "env": env,
        "setup": setup,
        "runs": [{"traced": r.traced, "wall_s": r.wall_s, "failures": r.failures} for r in reps],
        "fingerprint": next((r.fingerprint for r in reps if r.fingerprint), {}),
        "evolve_s_per_k": evolve_seconds_per_k(w, reps),
        "self_s_by_layer": self_seconds_by_layer(reps),
        "missing_probes": missing,
        "problems": problems,
    }
    base.mkdir(parents=True, exist_ok=True)
    (base / f"result-trace{args.trace}.json").write_text(
        json.dumps({**details, "metrics": result_metrics}, indent=2) + "\n", encoding="utf-8"
    )
    last_traced = next((r for r in reversed(reps) if r.traced), None)
    if last_traced is not None:
        with open(base / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in last_traced.spans:
                fh.write(json.dumps(span) + "\n")

    if args.write_reference and correct and details["fingerprint"]:
        entries = reference.setdefault(w.name, {})
        if str(args.seed) not in entries:
            entries[str(args.seed)] = details["fingerprint"]
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print("# env " + json.dumps(env, sort_keys=True))
    if missing:
        print("# probes missing (their metrics read 0): " + ", ".join(missing))
    for msg in problems:
        print("# CHECK FAILED " + msg, file=sys.stderr)
    for name, seconds in details["self_s_by_layer"].items():
        print(f"# self time {name} = {seconds} s")
    for name, entry in result_metrics.items():
        print(f"# {name} = {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
