"""Time the projection across input widths, and check that its bytes do not depend on the BLAS thread count.

    python3 tools/project_widths.py --out BENCH_project.json

For each seeded (rows, columns) input, `reduce.projection.project` runs
`--reps` times with numpy's OpenBLAS thread count set to 1 before the call
and `--reps` times with it set to 2, alternating which goes first. Per
shape it records the median seconds at each count and whether every
output has the same bytes. Results go under `widths` in `--out`; the rest
of the file, and any other entry under `widths`, is kept.
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
    "920x32,6620x32,12000x32,64x1536,1024x128,16384x32,6620x64,6620x128,"
    "920x768,920x1536,920x3072,6620x768,6620x1536,6620x3072"
)
THREADS = (1, 2)


def time_shape(rows: int, cols: int, reps: int, set_threads) -> dict:
    data = np.random.default_rng(0).normal(size=(rows, cols))
    cfg = ProjectionConfig(target_dimension=min(20, cols))
    seconds: dict[int, list[float]] = {threads: [] for threads in THREADS}
    outputs = set()
    for rep in range(reps):
        for threads in sorted(THREADS, reverse=rep % 2 == 1):
            set_threads(threads)
            start = time.perf_counter()
            outputs.add(project(data, cfg).tobytes())
            seconds[threads].append(time.perf_counter() - start)
    return {
        "rows": rows,
        "columns": cols,
        **{f"threads_{threads}_s": round(statistics.median(s), 4) for threads, s in seconds.items()},
        "same_bytes": len(outputs) == 1,
    }


def main(argv: list[str] | None = None) -> list[dict]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--shapes", default=SHAPES, help="comma-separated ROWSxCOLUMNS")
    args = parser.parse_args(argv)
    controls = projection._blas_thread_controls()
    if controls is None:
        raise SystemExit("project_widths: numpy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = controls
    original = get()
    try:
        rows = [time_shape(*map(int, shape.split("x")), args.reps, set_) for shape in args.shapes.split(",")]
    finally:
        set_(original)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("widths", {}).update(
        command=f"python3 tools/project_widths.py --reps {args.reps} --shapes {args.shapes}",
        env={"numpy": np.__version__, "nproc": os.cpu_count(), "openblas_threads": original},
        shapes=rows,
    )
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(json.dumps(row))
    return rows


if __name__ == "__main__":
    main()
