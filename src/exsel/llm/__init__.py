"""Client for OpenAI-compatible chat and embedding services, plus an offline hashing embedder."""

from exsel.llm.cache import EmbeddingCache
from exsel.llm.client import HttpTransport, LLMClient
from exsel.llm.mock import HashingEmbeddingTransport
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

__all__ = [
    "AuthenticationError",
    "ChatRequest",
    "ClientError",
    "EmbeddingCache",
    "HashingEmbeddingTransport",
    "HttpTransport",
    "LLMClient",
    "MalformedResponseError",
    "RetryBudgetExceeded",
    "Transport",
    "TransportConfig",
    "TransientServiceError",
]
