"""Time the projection's SVD in one BLAS thread against OpenBLAS's own thread count, across input widths.

    python3 tools/project_widths.py --out BENCH_project.json

For each seeded (rows, columns) input, `reduce.projection.project` runs
`--reps` times in each of two ways, alternating which goes first: with the
thread count forced to one, and with numpy's thread controls hidden so the
SVD runs as numpy would run it on its own. Per shape it records the median
seconds of each way, whether their outputs have the same bytes, and which
way `project` itself takes (one thread only below its work bound). Results
go under `widths` in `--out`; the rest of the file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from exsel.reduce import projection  # noqa: E402
from exsel.reduce.projection import ProjectionConfig, project  # noqa: E402

SHAPES = (
    (920, 32), (6620, 32), (12000, 32), (64, 1536), (1024, 128),
    (16384, 32), (6620, 64), (6620, 128), (6620, 768), (6620, 1536),
)


def time_shape(rows: int, cols: int, reps: int) -> dict:
    data = np.random.default_rng(0).normal(size=(rows, cols))
    cfg = ProjectionConfig(target_dimension=20)
    controls, bound = projection._blas_thread_controls, projection._ONE_THREAD_WORK
    ways = {"one_thread": (controls, float("inf")), "threaded": (lambda: None, bound)}
    seconds: dict[str, list[float]] = {way: [] for way in ways}
    outputs: dict[str, np.ndarray] = {}
    try:
        for rep in range(reps):
            for way in sorted(ways, reverse=rep % 2 == 1):
                projection._blas_thread_controls, projection._ONE_THREAD_WORK = ways[way]
                start = time.perf_counter()
                outputs[way] = project(data, cfg)
                seconds[way].append(time.perf_counter() - start)
    finally:
        projection._blas_thread_controls, projection._ONE_THREAD_WORK = controls, bound
    return {
        "rows": rows,
        "columns": cols,
        "work": rows * cols * min(rows, cols),
        "project_uses_one_thread": rows * cols * min(rows, cols) < bound,
        **{f"{way}_s": round(statistics.median(s), 4) for way, s in seconds.items()},
        "same_bytes": bool(np.array_equal(outputs["one_thread"], outputs["threaded"])),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    controls = projection._blas_thread_controls()
    if controls is None:
        raise SystemExit("project_widths: numpy's BLAS exposes no OpenBLAS thread controls")
    rows = [time_shape(r, c, args.reps) for r, c in SHAPES]
    widths = {
        "command": "python3 tools/project_widths.py --reps %d" % args.reps,
        "env": {"numpy": np.__version__, "nproc": os.cpu_count(), "openblas_threads": controls[0]()},
        "bound": projection._ONE_THREAD_WORK,
        "shapes": rows,
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["widths"] = widths
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
