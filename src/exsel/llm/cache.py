"""Content-addressed embedding cache persisted as JSONL.

Keys are sha256 over (model, text), so a cache survives renames and can
be shared between runs; re-running a 10k-example pipeline only pays for
texts it has never embedded. Corrupt lines, and records whose vector is
empty or not finite, are skipped on load rather than failing the run, so
such a text is embedded again. A file whose last line was cut short by a
crash gets its next record on a fresh line.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Mapping, Sequence


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
                if vector and all(map(math.isfinite, vector)):
                    self._store[key] = vector

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> tuple[float, ...] | None:
        return self._store.get(key)

    def put(self, entries: Mapping[str, Sequence[float]]) -> None:
        """Store one batch of vectors; those not yet cached go to the file in one append."""
        fresh = {key: tuple(vector) for key, vector in entries.items() if key not in self._store}
        if not fresh:
            return
        self._store.update(fresh)
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            lines = "".join(json.dumps({"key": key, "vector": list(vector)}) + "\n" for key, vector in fresh.items())
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write("\n" + lines if self._line_open else lines)
            self._line_open = False
