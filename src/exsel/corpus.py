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
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, Sequence

PROVENANCE_SYNTHETIC = "synthetic"
PROVENANCE_HUMAN = "human"
_PROVENANCES = (PROVENANCE_SYNTHETIC, PROVENANCE_HUMAN)


class DatasetError(ValueError):
    """Raised for malformed example data or violated dataset invariants."""


def _utf8(text: str) -> None:
    """Raise unless `text` encodes as UTF-8: one with a lone surrogate, such as JSON "\\ud800", could not be written.

    Callers test `text.isascii()` first, which is cheaper than this call, so only non-ASCII text gets here.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DatasetError(f"{exc.object[exc.start : exc.end]!r} does not encode as UTF-8") from exc


def _freeze_entities(entities: Mapping[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    """Label -> frozenset of values, from a mapping of each label to a list, tuple, set or frozenset of strings."""
    # a dict, what a record holds, passes the cheap test; the ABC's isinstance costs several times more
    if not isinstance(entities, dict) and not isinstance(entities, Mapping):
        raise DatasetError("entities must be an object mapping label to a list of values")
    frozen: dict[str, frozenset[str]] = {}
    for label, values in entities.items():
        if not isinstance(values, (list, tuple, set, frozenset)):  # a string or dict would be split into its items
            raise DatasetError(f"entities[{label!r}] must be a list of strings")
        if not isinstance(label, str) or not label:
            raise DatasetError(f"entity label must be a non-empty string, got {label!r}")
        if not label.isascii():
            _utf8(label)
        for value in values:  # checked before hashing: a list or object value is unhashable
            if not isinstance(value, str) or not value.strip():
                raise DatasetError(f"entity value for label {label!r} must be a non-empty string, got {value!r}")
            if not value.isascii():
                _utf8(value)
        # labels come from a small schema, so a pool shares one interned plain str per label; a str subclass
        # cannot be interned. Values are kept as given: free-text values need not repeat.
        frozen[sys.intern(str(label))] = frozenset(values)
    return frozen


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(self, "provenance", sys.intern(str(self.provenance)))
        if not self.id.isascii():
            _utf8(self.id)
        if not self.text.isascii():
            _utf8(self.text)


def observed_labels(examples: Iterable[Example]) -> tuple[str, ...]:
    """The entity labels observed across examples, in first-seen order: the list an extraction prompt names."""
    labels = tuple(dict.fromkeys(label for example in examples for label in example.entities))
    if not labels:
        raise DatasetError("no entity labels observed in examples")
    return labels


def example_to_record(example: Example) -> dict:
    """JSON-serializable record for one example; value sets become sorted lists."""
    return {
        "id": example.id,
        "text": example.text,
        "entities": {label: sorted(values) for label, values in sorted(example.entities.items())},
        "provenance": example.provenance,
    }


def _record_line(example: Example) -> str:
    """`json.dumps(example_to_record(example), ensure_ascii=False, sort_keys=True)` and a newline.

    Built in one f-string, each string through `encode_basestring`, the C escaper that call itself uses: the
    keys in sorted order, json's default separators.
    """
    entities = ", ".join([  # a list: join would build one from a generator anyway, more slowly
        f"{encode_basestring(label)}: [{', '.join(map(encode_basestring, sorted(values)))}]"
        for label, values in sorted(example.entities.items())
    ])
    return (
        f'{{"entities": {{{entities}}}, "id": {encode_basestring(example.id)}, '
        f'"provenance": {encode_basestring(example.provenance)}, "text": {encode_basestring(example.text)}}}\n'
    )


_FIELDS = frozenset({"id", "text", "entities", "provenance"})


def example_from_record(record: object) -> Example:
    if not isinstance(record, dict):
        raise DatasetError(f"record must be an object, got {type(record).__name__}")
    if not _FIELDS.issuperset(record):
        raise DatasetError(f"record has unknown fields: {sorted(set(record) - _FIELDS)}")
    return Example(
        id=record.get("id", ""),
        text=record.get("text", ""),
        entities=record.get("entities", {}),
        provenance=record.get("provenance", PROVENANCE_SYNTHETIC),
    )


_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str) -> object:
    """`json.loads(line)` for a stripped line, through the C scanner that call ends in, without its Python wrapper.

    A line the scanner does not read whole (no value at the start, a BOM, trailing data) goes to `json.loads`,
    which raises json's own error for it.
    """
    try:
        record, end = _scan_once(line, 0)
    except StopIteration:
        end = -1
    return record if end == len(line) else json.loads(line)


def load_examples(path: Path | str) -> list[Example]:
    """Load a JSONL examples file, validating per-record schema and id uniqueness.

    Errors carry the 1-based line number of the offending record, also for a line json reads but cannot hold:
    an integer past Python's digit limit (a ValueError) or nesting past the recursion limit.
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
                example = example_from_record(_decode_line(line))
            except (ValueError, RecursionError) as exc:  # ValueError: DatasetError, JSONDecodeError, the digit limit
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
        fh.writelines(map(_record_line, examples))


def split_dataset(examples: Sequence[Example], n_validation: int, seed: int) -> tuple[list[Example], list[Example]]:
    """Randomly hold out `n_validation` examples: `(candidates, validation)`.

    Deterministic per seed; each split preserves the input's relative order.
    Input ids must be unique, so the two splits never share one.
    """
    if len({example.id for example in examples}) != len(examples):
        raise DatasetError("examples to split repeat an example id")
    if n_validation < 0:
        raise DatasetError("n_validation must be >= 0")
    if n_validation >= len(examples):
        raise DatasetError(f"n_validation={n_validation} must be smaller than the pool size {len(examples)}")
    rng = random.Random(seed)
    indices = list(range(len(examples)))
    rng.shuffle(indices)
    held_out = set(indices[:n_validation])
    candidates = [examples[i] for i in range(len(examples)) if i not in held_out]
    validation = [examples[i] for i in range(len(examples)) if i in held_out]
    return candidates, validation


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
