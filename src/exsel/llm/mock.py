"""Deterministic in-process embeddings for offline runs: character n-gram feature hashing, a batch at a time."""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from exsel.llm.transport import ChatRequest, ClientError

# Above this many gram codes ((alphabet + 2) ** n), a batch keys its grams by string, not by a lookup table.
_GRAM_TABLE_MAX = 1 << 20


class HashingEmbeddingTransport:
    """Deterministic text embeddings via character n-gram feature hashing.

    No model behind it: each n-gram (3 by default) of the space-padded,
    lowercased text hashes to a coordinate and a sign, and the sum is
    L2-normalized. Texts sharing vocabulary land near each other, which is
    all the clustering stage needs for offline end-to-end runs. Per batch,
    numpy finds the distinct grams, each is hashed once per instance, and
    one `np.bincount` sums the signs: exact integers, in any order.
    """

    def __init__(self, dimension: int = 32, ngram: int = 3) -> None:
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        if ngram < 1:
            raise ValueError("ngram must be >= 1")
        self.dimension = dimension
        self.ngram = ngram
        self._features: dict[str, int] = {}  # gram -> ±(coordinate + 1)

    def _feature(self, gram: str) -> int:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        coordinate = int.from_bytes(digest[:4], "big") % self.dimension + 1
        feature = self._features[gram] = coordinate if digest[4] & 1 else -coordinate
        return feature

    def _first(self, joined: str, pads: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """For each gram occurrence (`joined[start : start + width]`), the index of one occurrence of that gram.

        A code is n symbols in base `radix`; pad spaces have their own symbol, so a text
        shorter than n, whose code runs on into the next text, shares no code with a whole gram.
        """
        n = self.ngram
        points = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
        symbol = np.cumsum(np.bincount(points, minlength=1) > 0)  # 1, 2, ... for the code points present
        radix = int(symbol[-1]) + 2  # 0 past the last text, then the symbols, then the pad spaces
        if radix**n > _GRAM_TABLE_MAX:
            first: dict[str, int] = {}
            spans = zip(starts.tolist(), widths.tolist())
            return np.array([first.setdefault(joined[s : s + w], i) for i, (s, w) in enumerate(spans)], np.intp)
        digits = np.zeros(len(points) + n, np.int64)
        digits[: len(points)] = symbol[points]
        digits[pads] = radix - 1
        codes = digits[: len(points)]  # the code of the gram starting at each symbol
        for j in range(1, n):
            codes = codes * radix + digits[j : j + len(points)]
        codes, table = codes[starts], np.empty(radix**n, np.intp)
        table[codes] = np.arange(len(codes))
        return table[codes]

    def complete(self, request: ChatRequest) -> str:
        raise ClientError("hashing transport does not support chat")

    def embed(self, model: str, texts: Sequence[str]) -> np.ndarray:
        """One unit float64 row per text, in input order."""
        padded = [f" {text.lower()} " for text in texts]
        lengths = np.fromiter(map(len, padded), np.intp, len(padded))
        ends = np.cumsum(lengths)
        per_text = np.maximum(lengths - self.ngram + 1, 1)
        text_of = np.repeat(np.arange(len(padded)), per_text)
        starts = np.arange(len(text_of)) + (ends - lengths - np.cumsum(per_text) + per_text)[text_of]
        widths = np.minimum(lengths, self.ngram)[text_of]
        joined = "".join(padded)
        first = self._first(joined, np.concatenate([ends - lengths, ends - 1]), starts, widths)
        grams = np.flatnonzero(first == np.arange(len(first)))  # one occurrence stands for each gram
        signed = np.zeros(len(first), np.intp)
        features, spans = self._features, zip(starts[grams].tolist(), widths[grams].tolist())
        signed[grams] = [features.get(joined[s : s + w]) or self._feature(joined[s : s + w]) for s, w in spans]
        signed = signed[first]
        dim = self.dimension
        vectors = np.bincount(
            text_of * dim + np.abs(signed) - 1, weights=np.sign(signed), minlength=len(padded) * dim
        ).reshape(len(padded), dim)
        norms = np.sqrt((vectors * vectors).sum(axis=1))
        empty = norms == 0.0  # every coordinate cancelled out: the first axis
        vectors[empty, 0] = norms[empty] = 1.0
        return vectors / norms[:, None]
