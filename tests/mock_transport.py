"""A scripted transport for tests: replies from a queue or a callback, with call counters and a concurrency probe."""

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
