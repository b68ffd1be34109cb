"""Deterministic in-process transports for tests and offline runs."""

from __future__ import annotations

import hashlib
import math
import threading
from typing import Callable, Sequence

from exsel.llm.transport import ChatRequest, ClientError


class MockTransport:
    """Scripted transport with call counters and a concurrency probe.

    Chat replies come from an explicit queue (strings, or exceptions to
    raise) or from a `chat_fn` callback. Embeddings come from `embed_fn`
    (text -> vector); the default is a constant unit vector.
    """

    def __init__(
        self,
        replies: Sequence[str | Exception] | None = None,
        *,
        chat_fn: Callable[[ChatRequest], str] | None = None,
        embed_fn: Callable[[str], Sequence[float]] | None = None,
        embed_dimension: int = 4,
    ) -> None:
        self._replies = list(replies) if replies is not None else []
        self._chat_fn = chat_fn
        self._embed_fn = embed_fn
        self._embed_dimension = embed_dimension
        self._lock = threading.Lock()
        self.chat_calls = 0
        self.embed_calls = 0
        self.chat_requests: list[ChatRequest] = []
        self._in_flight = 0
        self.max_observed_in_flight = 0

    def _enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.max_observed_in_flight = max(self.max_observed_in_flight, self._in_flight)

    def _leave(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def complete(self, request: ChatRequest) -> str:
        self._enter()
        try:
            with self._lock:
                self.chat_calls += 1
                self.chat_requests.append(request)
            if self._replies:
                with self._lock:
                    item = self._replies.pop(0)
                if isinstance(item, Exception):
                    raise item
                return item
            if self._chat_fn is not None:
                return self._chat_fn(request)
            raise ClientError("mock transport has no reply scripted")
        finally:
            self._leave()

    def embed(self, model: str, texts: Sequence[str]) -> list[list[float]]:
        self._enter()
        try:
            with self._lock:
                self.embed_calls += 1
            if self._embed_fn is not None:
                return [list(self._embed_fn(text)) for text in texts]
            unit = [1.0] + [0.0] * (self._embed_dimension - 1)
            return [list(unit) for _ in texts]
        finally:
            self._leave()


class HashingEmbeddingTransport:
    """Deterministic text embeddings via character n-gram feature hashing.

    No model behind it: each n-gram (3 by default) of the lowercased
    text hashes to a coordinate and a sign, and the sum is L2-normalized.
    Texts sharing vocabulary land near each other, which is all the
    clustering stage needs for offline end-to-end runs. Each instance
    memoises the (coordinate, sign) of every n-gram it has hashed; the
    vocabulary of n-grams is small, so the memo stays small.
    """

    def __init__(self, dimension: int = 32, ngram: int = 3) -> None:
        if dimension < 2:
            raise ValueError("dimension must be >= 2")
        if ngram < 1:
            raise ValueError("ngram must be >= 1")
        self.dimension = dimension
        self.ngram = ngram
        self._features: dict[str, tuple[int, float]] = {}

    def _feature(self, gram: str) -> tuple[int, float]:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest[:4], "big") % self.dimension
        return bucket, 1.0 if digest[4] & 1 else -1.0

    def _vector(self, text: str) -> list[float]:
        vec = [0.0] * self.dimension
        padded = f" {text.lower()} "
        features = self._features
        for i in range(max(1, len(padded) - self.ngram + 1)):
            gram = padded[i : i + self.ngram]
            feature = features.get(gram)
            if feature is None:
                feature = features[gram] = self._feature(gram)
            bucket, sign = feature
            vec[bucket] += sign
        norm = math.sqrt(sum(v * v for v in vec))
        if norm == 0.0:
            vec[0] = 1.0
            return vec
        return [v / norm for v in vec]

    def complete(self, request: ChatRequest) -> str:
        raise ClientError("hashing transport does not support chat")

    def embed(self, model: str, texts: Sequence[str]) -> list[list[float]]:
        return [self._vector(text) for text in texts]
