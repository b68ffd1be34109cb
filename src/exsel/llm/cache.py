"""Content-addressed embedding cache persisted as JSONL, and the rule every stored vector keeps.

Keys are sha256 over (model, text), so a cache survives renames and can
be shared between runs; re-running a 10k-example pipeline only pays for
texts it has never embedded. Corrupt lines, and records whose vector
fails `checked_rows`, are skipped on load rather than failing the run,
so such a text is embedded again. A file whose last line was cut short
by a crash gets its next record on a fresh line.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from exsel.llm.transport import MalformedResponseError


def cache_key(model: str, text: str) -> str:
    payload = model.encode("utf-8") + b"\x1f" + text.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def checked_rows(raw: object, n_rows: int) -> np.ndarray:
    """Rows as an (n_rows, d) float64 matrix of finite numbers, d > 0.

    Anything else raises MalformedResponseError.
    """
    try:
        rows = np.array(raw)
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
    """In-memory map of float64 rows backed by an append-only JSONL file (optional)."""

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._store: dict[str, np.ndarray] = {}
        self._line_open = False  # the file ends inside a line
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                self._line_open = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._store[record["key"]] = checked_rows([record["vector"]], 1)[0]
                except (json.JSONDecodeError, KeyError, TypeError, MalformedResponseError):
                    continue  # TypeError: a record that is not an object, or a key that is not hashable

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> np.ndarray | None:
        return self._store.get(key)

    def put(self, keys: Sequence[str], rows: np.ndarray) -> None:
        """Store one batch of `checked_rows`, a row per key; those not yet cached go to the file in one append."""
        fresh = {key: row for key, row in zip(keys, rows, strict=True) if key not in self._store}
        if not fresh:
            return
        self._store.update(fresh)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            lines = "".join(json.dumps({"key": key, "vector": row.tolist()}) + "\n" for key, row in fresh.items())
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write("\n" + lines if self._line_open else lines)
            self._line_open = False
