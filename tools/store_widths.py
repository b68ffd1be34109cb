"""Time the embedding cache's writes and a fresh reload at several embedding widths.

    python3 tools/store_widths.py --out BENCH_embed.json --label change [--src path/to/checkout/src]

For each width, a fresh process puts 6,620 seeded unit vectors into an
`EmbeddingCache` on disk in batches of 128 (the client's API batch), then
opens the cache again from its files. It records the seconds of all puts,
the seconds of the reload, the size of the cache files, the process's peak
resident memory, and whether every reloaded row has the bits that were put.
`--src` points at the `src/` of the checkout to measure (default: this
one), so the same script measures a parent commit. Results go under
`store_widths[label]` in `--out`; the rest of the file is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROWS = 6620
BATCH = 128
WIDTHS = (32, 768, 1536)


def measure(width: int, directory: Path) -> dict:
    """One width, in this process: put every batch, then reload from the files."""
    from exsel.llm.cache import EmbeddingCache, cache_key  # from --src, put on sys.path by main

    vectors = np.random.default_rng(width).normal(size=(ROWS, width))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    keys = [cache_key("m", f"text {i}") for i in range(ROWS)]
    path = directory / "embeddings.jsonl"
    cache = EmbeddingCache(path)
    start = time.perf_counter()
    for first in range(0, ROWS, BATCH):
        cache.put(keys[first : first + BATCH], vectors[first : first + BATCH])
    put_s = time.perf_counter() - start
    del cache
    start = time.perf_counter()
    reloaded = EmbeddingCache(path)
    reload_s = time.perf_counter() - start
    same = all(reloaded.get(key).tobytes() == row.tobytes() for key, row in zip(keys, vectors))
    size = sum(f.stat().st_size for f in directory.iterdir())
    return {
        "width": width,
        "rows": ROWS,
        "put_s": round(put_s, 4),
        "reload_s": round(reload_s, 4),
        "file_mb": round(size / 1e6, 2),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "same_bits": same,
        "files": sorted(f.name for f in directory.iterdir()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="JSON file to update (omit to only print)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--label", default="change", help="the key of this checkout's rows in `store_widths`")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child process measuring one width
    args = parser.parse_args()
    if args.one is not None:
        sys.path.insert(0, str(args.src))
        with tempfile.TemporaryDirectory() as directory:
            print(json.dumps(measure(args.one, Path(directory))))
        return
    rows = []
    for width in WIDTHS:
        cmd = [sys.executable, __file__, "--src", str(args.src), "--one", str(width)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    if args.out is None:
        return
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("store_widths", {})[args.label] = {
        "command": f"python3 tools/store_widths.py --label {args.label}",
        "env": {"python": sys.version.split()[0], "numpy": np.__version__, "nproc": os.cpu_count()},
        "widths": rows,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
