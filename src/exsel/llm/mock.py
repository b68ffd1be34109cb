"""Deterministic in-process embeddings for offline runs: character n-gram feature hashing, a batch at a time."""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from exsel.llm.transport import ChatRequest, ClientError

# Above this many gram codes ((alphabet + 1) ** n), a batch sorts its grams' keys instead of filling a lookup table.
_GRAM_TABLE_MAX = 1 << 20


class HashingEmbeddingTransport:
    """Deterministic text embeddings via character n-gram feature hashing.

    No model behind it: each n-gram (3 by default) of the space-padded,
    lowercased text hashes to a coordinate and a sign, and the sum is
    L2-normalized. Texts sharing vocabulary land near each other, which is
    all the clustering stage needs for offline end-to-end runs. Per batch,
    numpy finds the distinct grams, each is hashed once per instance, and
    one `np.bincount` sums the signs: exact integers, in any order. An
    instance keeps what it has hashed as two numpy arrays, sorted gram keys
    and their features, about 4n + 1 bytes per distinct gram.
    """

    def __init__(self, dimension: int = 32, ngram: int = 3) -> None:
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        if ngram < 1:
            raise ValueError("ngram must be >= 1")
        self.dimension = dimension
        self.ngram = ngram
        # every gram hashed so far: the sorted keys (see `_keys_of`) and their features ±(coordinate + 1)
        # in the narrowest type that holds ±dimension, closed by a key of 0xff bytes, above every gram's
        # (a word's top byte is 0), and feature 0
        end = np.array([b"\xff" * 4 * ngram], f"S{4 * ngram}")
        self._table = end, np.zeros(1, np.min_scalar_type(-dimension - 1))

    def _feature(self, gram: str) -> int:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        coordinate = int.from_bytes(digest[:4], "big") % self.dimension + 1
        return coordinate if digest[4] & 1 else -coordinate

    def _keys_of(self, points: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Each gram's key: its code points + 1 as uint32, zero-padded to n, as `S{4n}` bytes.

        No code point maps to 0, so the padding (which numpy may strip) never makes two grams' keys equal.
        """
        n = self.ngram
        return points.take(starts[:, None] + np.arange(n)).view(f"S{4 * n}").ravel()

    def _lookup(self, joined: str, points: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The features of distinct grams: those seen before from the table, the rest hashed and merged into it."""
        keys = self._keys_of(points, starts)
        known, known_features = self._table  # one read: a batch in another thread replaces the pair whole
        at = np.searchsorted(known, keys)
        features = np.where(known[at] == keys, known_features[at], 0)
        new = np.flatnonzero(features == 0)  # not seen yet
        if len(new):
            widths = np.count_nonzero(keys[new].view(np.uint32).reshape(len(new), -1), axis=1)  # a short key ends in 0s
            spans = zip(starts[new].tolist(), widths.tolist())
            features[new] = [self._feature(joined[s : s + w]) for s, w in spans]
            merged = np.concatenate([known, keys[new]])
            order = np.argsort(merged, kind="stable")
            self._table = merged[order], np.concatenate([known_features, features[new]])[order]
        return features

    def _first(self, points: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """For each gram occurrence (`points[start : start + n]`), the index of one occurrence of that gram.

        A code is n symbols in base `radix`, symbol 0 for the zero words between texts, so the
        code of a text shorter than n ends in zeros and is shared with no whole gram.
        """
        n = self.ngram
        present = np.bincount(points, minlength=1) > 0
        present[0] = False
        symbol = np.cumsum(present)  # 0 between texts, then 1, 2, ... for the code points present
        radix = int(symbol[-1]) + 1
        if radix**n > _GRAM_TABLE_MAX:
            _, one, back = np.unique(self._keys_of(points, starts), return_index=True, return_inverse=True)
            return one[back]
        digits = symbol.astype(np.min_scalar_type(radix - 1)).take(points)  # a symbol is below radix
        codes = digits.take(starts).astype(np.intp)  # the code of the n symbols starting at each start
        for j in range(1, n):
            codes *= radix
            codes += digits[j:].take(starts)
        narrow = np.min_scalar_type(len(starts))  # the table spans every code, so its entries are kept small
        table = np.empty(radix**n, narrow)
        table[codes] = np.arange(len(codes), dtype=narrow)
        return table.take(codes)

    def complete(self, request: ChatRequest) -> str:
        raise ClientError("hashing transport does not support chat")

    def _signed(self, padded: list[str], lengths: np.ndarray, per_text: np.ndarray) -> np.ndarray:
        """The feature ±(coordinate + 1) of every gram occurrence of the padded texts, text by text.

        The batch's index arrays live only in here, so they are freed before `embed` sums the features.
        """
        n = self.ngram
        # each text is followed by n - 1 separators, zero words in `points` (no code point + 1 is 0), so the
        # one gram of a text shorter than n is zero-padded, and no gram runs on into the next text
        heads = np.cumsum(lengths + n - 1) - lengths - (n - 1)
        starts = np.repeat(heads - np.cumsum(per_text) + per_text, per_text)  # gram i of text t starts at heads[t] + i
        starts += np.arange(len(starts))
        separator = "\0" * (n - 1)
        joined = separator.join(padded) + separator
        points = np.frombuffer(joined.encode("utf-32-le"), np.uint32) + 1
        points[(heads + lengths)[:, None] + np.arange(n - 1)] = 0
        first = self._first(points, starts)
        grams = np.flatnonzero(first == np.arange(len(first), dtype=first.dtype))  # one occurrence stands for each gram
        features = self._lookup(joined, points, starts[grams])
        signed = np.zeros(len(first), features.dtype)
        signed[grams] = features
        return signed.take(first)

    def embed(self, model: str, texts: Sequence[str]) -> np.ndarray:
        """One unit float64 row per text, in input order."""
        dim = self.dimension
        padded = [f" {text.lower()} " for text in texts]
        lengths = np.fromiter(map(len, padded), np.intp, len(padded))
        per_text = np.maximum(lengths - self.ngram + 1, 1)
        signed = self._signed(padded, lengths, per_text)
        # slot 2 (t dim + |f| - 1) counts the grams of text t with feature f > 0, the next slot those with
        # f < 0: one bincount of exact integers, with no float weights
        slots = np.repeat(np.arange(len(padded)) * dim - 1, per_text)
        slots += np.abs(signed)
        slots *= 2
        slots += signed < 0
        counts = np.bincount(slots, minlength=2 * len(padded) * dim)
        vectors = np.subtract(counts[0::2], counts[1::2], dtype=np.float64).reshape(len(padded), dim)
        norms = np.sqrt((vectors * vectors).sum(axis=1))
        empty = norms == 0.0  # every coordinate cancelled out: the first axis
        vectors[empty, 0] = norms[empty] = 1.0
        return vectors / norms[:, None]
