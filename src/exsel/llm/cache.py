"""Content-addressed embedding cache: raw float64 rows plus a JSONL index, and the rule every stored vector keeps.

Keys are sha256 over (model, text), so a cache survives renames and can
be shared between runs. `put` appends a batch's rows as little-endian
float64 to `<name>.f64`, then one `{"key", "width", "offset"}` line per
row to `<name>.jsonl`, both under one lock on the row file, so writers
sharing a cache keep the lines in the order of their bytes. Bytes a
crash leaves without a line are never read.
Load skips a line that is corrupt, whose bytes were cut short or written
over after a cut, or whose row fails `checked_rows`, so that text is
embedded again; the line after one cut short starts on a fresh line.
Lines of the older format, which hold the `"vector"`, are still read.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from exsel.llm.transport import MalformedResponseError

_ROW_DTYPE = np.dtype("<f8")


def cache_key(model: str, text: str) -> str:
    payload = model.encode("utf-8") + b"\x1f" + text.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def checked_rows(raw: object, n_rows: int) -> np.ndarray:
    """Rows as an (n_rows, d) float64 matrix of finite numbers, d > 0; a float64 array comes back uncopied.

    Anything else raises MalformedResponseError.
    """
    try:
        rows = np.asarray(raw)
    except ValueError as exc:  # rows of different lengths
        raise MalformedResponseError(f"embedding dimensions within one reply differ: {exc}") from None
    if rows.ndim != 2 or rows.dtype.kind not in "iuf":
        raise MalformedResponseError(f"embeddings must be rows of numbers, got a {rows.ndim}-d array of {rows.dtype}")
    if len(rows) != n_rows:
        raise MalformedResponseError(f"asked for {n_rows} embeddings, got {len(rows)}")
    if rows.shape[1] == 0:
        raise MalformedResponseError("embedding dimension must be non-zero, got 0")
    rows = rows.astype(np.float64, copy=False)
    if not np.isfinite(rows).all():
        raise MalformedResponseError("embeddings contain non-finite values")
    return rows


class EmbeddingCache:
    """In-memory map of float64 rows backed by an append-only row file and its JSONL index (optional)."""

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.rows_path = self.path.with_suffix(".f64") if self.path is not None else None
        if self.path is not None and self.rows_path == self.path:
            raise ValueError(f"embedding cache {self.path} must not end in .f64: its rows are kept under that name")
        self._store: dict[str, np.ndarray] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None and self.rows_path is not None
        blob = self.rows_path.read_bytes() if self.rows_path.exists() else b""
        entries = []  # (key, row of an older-format line, or (width, offset) of its bytes)
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                    if "vector" in record:
                        entries.append((record["key"], checked_rows([record["vector"]], 1)[0]))
                    elif int(record["width"]) > 0 and int(record["offset"]) >= 0:
                        entries.append((record["key"], (int(record["width"]), int(record["offset"]))))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, MalformedResponseError):
                    continue  # TypeError: a record that is not an object
        floor = len(blob)  # where later lines' bytes start (`put` keeps lines in byte order): a cut file regrows from there
        for key, row in reversed(entries):  # so the last line of a key wins
            if isinstance(row, tuple):
                width, offset = row
                whole, floor = offset + width * _ROW_DTYPE.itemsize <= floor, min(floor, offset)
                try:
                    row = checked_rows(np.frombuffer(blob, _ROW_DTYPE, width, offset)[None], 1)[0] if whole else None
                except MalformedResponseError:
                    continue
            if row is not None and isinstance(key, str):
                self._store.setdefault(key, row)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> np.ndarray | None:
        return self._store.get(key)

    def put(self, keys: Sequence[str], rows: np.ndarray) -> None:
        """Store one batch of `checked_rows`, a row per key; those not yet cached go to the files in one append each."""
        fresh = {key: row for key, row in zip(keys, rows, strict=True) if key not in self._store}
        if not fresh:
            return
        self._store.update(fresh)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            block = np.array(list(fresh.values()), dtype=_ROW_DTYPE)
            with self.rows_path.open("ab") as rows, self.path.open("ab+") as index:
                fcntl.flock(rows, fcntl.LOCK_EX)  # writers sharing the cache keep its lines in the order of its rows
                rows.write(block.tobytes())
                rows.flush()
                offset = rows.tell() - block.nbytes
                lines = "".join(
                    f'{{"key": {json.dumps(key)}, "width": {block.shape[1]}, "offset": {offset + i * block[0].nbytes}}}\n'
                    for i, key in enumerate(fresh)
                )
                end = index.seek(0, os.SEEK_END)
                cut = end > 0 and os.pread(index.fileno(), 1, end - 1) != b"\n"  # a line a crash cut short
                index.write(("\n" + lines if cut else lines).encode("utf-8"))
