"""Client for OpenAI-compatible chat and embedding services, plus offline mocks."""

from exsel.llm.cache import EmbeddingCache
from exsel.llm.client import HttpTransport, LLMClient
from exsel.llm.mock import HashingEmbeddingTransport, MockTransport
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
    "MockTransport",
    "RetryBudgetExceeded",
    "Transport",
    "TransportConfig",
    "TransientServiceError",
]
