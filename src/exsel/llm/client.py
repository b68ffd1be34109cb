"""HTTP transport and the retrying, concurrency-bounded client."""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from exsel.llm.cache import EmbeddingCache, cache_key, checked_rows
from exsel.llm.transport import (
    AuthenticationError,
    ChatRequest,
    ClientError,
    MalformedResponseError,
    RetryBudgetExceeded,
    Transport,
    TransportConfig,
    TransientServiceError,
)

logger = logging.getLogger(__name__)

_EMBED_API_BATCH = 128


class HttpTransport:
    """OpenAI-compatible REST adapter: POST chat/completions and embeddings."""

    def __init__(self, config: TransportConfig) -> None:
        import requests  # imported here so runs that never speak HTTP do not pay for it

        self.config = config
        self._session = requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.api_key_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, route: str, body: dict) -> dict:
        import requests

        url = self.config.endpoint_url.rstrip("/") + route
        try:
            response = self._session.post(
                url, json=body, headers=self._headers(), timeout=self.config.timeout_s
            )
        except requests.RequestException as exc:
            raise TransientServiceError(f"request to {route} failed: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthenticationError(f"{route}: authentication rejected ({response.status_code})")
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientServiceError(f"{route}: status {response.status_code}")
        if response.status_code != 200:
            raise ClientError(f"{route}: unexpected status {response.status_code}: {response.text[:200]}")
        try:
            return response.json()
        except ValueError as exc:
            raise MalformedResponseError(f"{route}: body is not valid JSON") from exc

    def complete(self, request: ChatRequest) -> str:
        body = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        payload = self._post("/chat/completions", body)
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError("chat response missing choices[0].message.content") from exc
        if not isinstance(content, str):
            raise MalformedResponseError("chat message content is not a string")
        return content

    def embed(self, model: str, texts: Sequence[str]) -> list[list[float]]:
        payload = self._post("/embeddings", {"model": model, "input": list(texts)})
        try:
            rows = sorted(payload["data"], key=lambda item: item["index"])
            vectors = [row["embedding"] for row in rows]  # LLMClient.embed_batch checks them with checked_rows
        except (KeyError, TypeError) as exc:
            raise MalformedResponseError("embeddings response missing data[*].embedding") from exc
        if [row["index"] for row in rows] != list(range(len(rows))):
            raise MalformedResponseError(f"embeddings response index values are not 0..{len(rows) - 1}")
        return vectors


class LLMClient:
    """Retry, backoff, concurrency-bound, and embedding-cache layer over a transport.

    `sleep` is injectable so retry schedules can be tested without waiting.
    """

    def __init__(
        self,
        transport: Transport,
        config: TransportConfig,
        *,
        embedding_cache: EmbeddingCache | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.transport = transport
        self.config = config
        self.cache = embedding_cache if embedding_cache is not None else EmbeddingCache()
        self._sleep = sleep if sleep is not None else time.sleep
        self._gate = threading.Semaphore(self.config.max_in_flight)

    def _with_retries(self, call: Callable[[], object], what: str) -> object:
        attempts = self.config.max_retries + 1
        last: Exception | None = None
        for attempt in range(attempts):
            try:
                with self._gate:
                    return call()
            except TransientServiceError as exc:
                last = exc
                if attempt + 1 < attempts:
                    delay = min(self.config.backoff_base_s * (2**attempt), self.config.backoff_cap_s)
                    logger.warning("%s failed (%s); retry %d/%d in %.1fs", what, exc, attempt + 1, attempts - 1, delay)
                    self._sleep(delay)
        raise RetryBudgetExceeded(f"{what} failed after {attempts} attempts: {last}") from last

    def chat(self, request: ChatRequest) -> str:
        """Chat completion with retries; returns the first choice's content."""
        return self._with_retries(lambda: self.transport.complete(request), "chat")

    def chat_many(self, requests_: Sequence[ChatRequest]) -> list[str]:
        """Run several chat calls, concurrently up to max_in_flight, order-preserving."""
        if not requests_:
            return []
        # not a one-worker pool: a failure must stop the batch, and pool.map cancels only requests no worker took yet
        if self.config.max_in_flight == 1 or len(requests_) == 1:
            return [self.chat(req) for req in requests_]
        with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
            return list(pool.map(self.chat, requests_))

    def embed_batch(self, model: str, texts: Sequence[str]) -> np.ndarray:
        """Embed texts as a read-only (n, d) float64 matrix in input order; repeated or seen texts hit the cache.

        The rows of one call share one width: that of its cached rows, or
        else of its first service reply. Every reply is checked before it
        reaches the cache, so a malformed one raises MalformedResponseError
        and is asked for again by the next call. A fresh text's reply is
        written into the matrix at the text's first row, and the cache keeps
        a view of that row, so the matrix shares memory with the cache and
        is returned read-only; every other row is copied from the cache.
        """
        if any(not text for text in texts):
            raise ValueError("cannot embed empty text")
        keys = [cache_key(model, text) for text in texts]
        widths = sorted({len(self.cache.get(key)) for key in keys if key in self.cache})
        where = self.cache.path or "in memory"
        if len(widths) > 1:
            raise MalformedResponseError(
                f"cached embedding dimensions differ within batch: {widths}: the embedding cache ({where}) "
                f"mixes them for model {model!r}; delete the cache file or use another model name"
            )
        width = widths[0] if widths else None
        matrix = None
        first_row: dict[str, int] = {}  # the row of each fresh text's first occurrence
        for row, key in enumerate(keys):
            if key not in self.cache:
                first_row.setdefault(key, row)
        fresh_keys = list(first_row)
        for start in range(0, len(fresh_keys), _EMBED_API_BATCH):
            chunk_keys = fresh_keys[start : start + _EMBED_API_BATCH]
            chunk_texts = [texts[first_row[k]] for k in chunk_keys]
            raw = self._with_retries(lambda ct=chunk_texts: self.transport.embed(model, ct), "embed")
            rows = checked_rows(raw, len(chunk_keys))
            if width not in (None, rows.shape[1]):
                raise MalformedResponseError(
                    f"embedding dimension must be {width}, got {rows.shape[1]}: the embedding cache ({where}) "
                    f"holds {width}-d rows for model {model!r}; delete the cache file or use another model name"
                )
            width = rows.shape[1]
            if matrix is None:
                matrix = np.empty((len(keys), width))
                shared = matrix.view()  # the cache keeps rows of this read-only view, so it need not copy them
                shared.flags.writeable = False
            at = [first_row[k] for k in chunk_keys]
            matrix[at] = rows
            self.cache.put(chunk_keys, [shared[row] for row in at])
        if matrix is None:  # every text cached, or none given
            matrix = np.empty((len(keys), width or 0))
        for row, key in enumerate(keys):
            if first_row.get(key) != row:  # a cached text, or a repeat
                matrix[row] = self.cache.get(key)
        matrix.flags.writeable = False
        return matrix
