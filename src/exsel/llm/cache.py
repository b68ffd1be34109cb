"""Content-addressed embedding cache persisted as JSONL.

Keys are sha256 over (model, text), so a cache survives renames and can
be shared between runs; re-running a 10k-example pipeline only pays for
texts it has never embedded. Corrupt lines are skipped on load rather
than failing the run, and a file whose last line was cut short by a
crash gets its next record on a fresh line.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def cache_key(model: str, text: str) -> str:
    payload = model.encode("utf-8") + b"\x1f" + text.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class EmbeddingCache:
    """In-memory map backed by an append-only JSONL file (optional)."""

    def __init__(self, path: Path | str | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._store: dict[str, tuple[float, ...]] = {}
        self._line_open = False  # the file ends inside a line
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        assert self._path is not None
        with self._path.open("r", encoding="utf-8") as fh:
            for line in fh:
                self._line_open = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    vector = tuple(float(v) for v in record["vector"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue
                self._store[key] = vector

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> tuple[float, ...] | None:
        return self._store.get(key)

    def put(self, key: str, vector: tuple[float, ...]) -> None:
        if key in self._store:
            return
        self._store[key] = tuple(vector)
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._path.open("a", encoding="utf-8") as fh:
                if self._line_open:
                    fh.write("\n")
                    self._line_open = False
                fh.write(json.dumps({"key": key, "vector": list(vector)}))
                fh.write("\n")
