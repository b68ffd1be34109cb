"""Data model and persistence for labeled examples and splits, and chunk sampling from raw text.

An example is one sentence-level input plus, per label, the set of values
extractable from it (verbatim surface forms). Examples with no entities
are valid negatives. The on-disk format is JSON Lines: one record per
line with fields ``id``, ``text``, ``entities`` and ``provenance``;
entity value sets are serialized as sorted lists for stable round-trips.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

PROVENANCE_SYNTHETIC = "synthetic"
PROVENANCE_HUMAN = "human"
_PROVENANCES = (PROVENANCE_SYNTHETIC, PROVENANCE_HUMAN)


class DatasetError(ValueError):
    """Raised for malformed example data or violated dataset invariants."""


def _freeze_entities(entities: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    frozen: dict[str, frozenset[str]] = {}
    for label, values in entities.items():
        if not isinstance(label, str) or not label:
            raise DatasetError(f"entity label must be a non-empty string, got {label!r}")
        values = tuple(values)
        for value in values:  # checked before hashing: a list or object value is unhashable
            if not isinstance(value, str) or not value.strip():
                raise DatasetError(f"entity value for label {label!r} must be a non-empty string, got {value!r}")
        frozen[label] = frozenset(values)
    return frozen


@dataclass(frozen=True)
class Example:
    """One sentence-level example: text plus per-label sets of gold values."""

    id: str
    text: str
    entities: Mapping[str, frozenset[str]] = field(default_factory=dict)
    provenance: str = PROVENANCE_SYNTHETIC

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise DatasetError(f"example id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.text, str) or not self.text:
            raise DatasetError(f"example {self.id!r}: text must be a non-empty string")
        if self.provenance not in _PROVENANCES:
            raise DatasetError(f"example {self.id!r}: provenance must be one of {_PROVENANCES}")
        object.__setattr__(self, "entities", _freeze_entities(self.entities))


@dataclass(frozen=True)
class LabelSchema:
    """Ordered list of distinct entity label names."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise DatasetError("label schema must contain at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise DatasetError("label schema contains duplicate names")
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def from_examples(cls, examples: Iterable[Example]) -> "LabelSchema":
        """Collect the label universe observed across examples, in first-seen order."""
        seen: dict[str, None] = {}
        for ex in examples:
            for label in ex.entities:
                seen.setdefault(label, None)
        if not seen:
            raise DatasetError("no entity labels observed in examples")
        return cls(tuple(seen))


@dataclass(frozen=True)
class DatasetSplit:
    """Candidate / validation partition; the id sets are disjoint."""

    candidates: tuple[Example, ...]
    validation: tuple[Example, ...] = ()

    def __post_init__(self) -> None:
        ids = [ex.id for part in (self.candidates, self.validation) for ex in part]
        if len(set(ids)) != len(ids):
            raise DatasetError("dataset splits share example ids")


def example_to_record(example: Example) -> dict:
    """JSON-serializable record for one example; value sets become sorted lists."""
    return {
        "id": example.id,
        "text": example.text,
        "entities": {label: sorted(values) for label, values in sorted(example.entities.items())},
        "provenance": example.provenance,
    }


def example_from_record(record: object) -> Example:
    if not isinstance(record, dict):
        raise DatasetError(f"record must be an object, got {type(record).__name__}")
    unknown = set(record) - {"id", "text", "entities", "provenance"}
    if unknown:
        raise DatasetError(f"record has unknown fields: {sorted(unknown)}")
    entities = record.get("entities", {})
    if not isinstance(entities, dict):
        raise DatasetError("entities must be an object mapping label to a list of values")
    for label, values in entities.items():
        if not isinstance(values, list):
            raise DatasetError(f"entities[{label!r}] must be a list of strings")
    return Example(
        id=record.get("id", ""),
        text=record.get("text", ""),
        entities={label: values for label, values in entities.items()},
        provenance=record.get("provenance", PROVENANCE_SYNTHETIC),
    )


def load_examples(path: Path | str) -> list[Example]:
    """Load a JSONL examples file, validating per-record schema and id uniqueness.

    Errors carry the 1-based line number of the offending record.
    """
    path = Path(path)
    examples: list[Example] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                example = example_from_record(record)
            except (json.JSONDecodeError, DatasetError) as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
            if example.id in seen_ids:
                raise DatasetError(f"{path}:{lineno}: duplicate example id {example.id!r}")
            seen_ids.add(example.id)
            examples.append(example)
    return examples


def save_examples(examples: Iterable[Example], path: Path | str) -> None:
    """Write examples as JSONL, one record per line, in input order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for example in examples:
            fh.write(json.dumps(example_to_record(example), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def split_dataset(examples: Sequence[Example], n_validation: int, seed: int) -> DatasetSplit:
    """Randomly hold out `n_validation` examples; the rest become candidates.

    Deterministic per seed; each split preserves the input's relative order.
    """
    if n_validation < 0:
        raise DatasetError("n_validation must be >= 0")
    if n_validation >= len(examples):
        raise DatasetError(f"n_validation={n_validation} must be smaller than the pool size {len(examples)}")
    rng = random.Random(seed)
    indices = list(range(len(examples)))
    rng.shuffle(indices)
    held_out = set(indices[:n_validation])
    candidates = tuple(examples[i] for i in range(len(examples)) if i not in held_out)
    validation = tuple(examples[i] for i in range(len(examples)) if i in held_out)
    return DatasetSplit(candidates=candidates, validation=validation)


def sample_chunks(text: str, chunk_size: int, n: int, seed: int) -> list[str]:
    """Sample `n` chunks of a document's text, uniform over chunk start offsets.

    Start offsets lie on a fixed grid of chunk-size strides; the final
    window of a document may be shorter than the chunk size.
    """
    if n < 0:
        raise DatasetError("chunk count must be >= 0")
    if n == 0:
        return []
    offsets = range(0, len(text), chunk_size)
    rng = random.Random(seed)
    return [text[off : off + chunk_size] for off in rng.choices(offsets, k=n)]
