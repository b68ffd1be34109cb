"""Request/response types, transport protocol, and the client error taxonomy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable


class ClientError(Exception):
    """Base class for all client-side service failures."""


class AuthenticationError(ClientError):
    """Credentials rejected; never retried."""


class TransientServiceError(ClientError):
    """Rate limit, overload, or network fault; eligible for retry."""


class RetryBudgetExceeded(ClientError):
    """A transient failure persisted through every allowed retry."""


class MalformedResponseError(ClientError):
    """The service answered but the body did not match the expected shape."""


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call: prompts, sampling temperature, output budget."""

    model: str
    system_prompt: str
    user_prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 2048

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("model name must be non-empty")
        if not self.system_prompt or not self.user_prompt:
            raise ValueError("prompts must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass(frozen=True)
class TransportConfig:
    """Where to send requests and how hard to push.

    The auth token itself is read from the environment variable named by
    `api_key_env` at call time and is never stored or written anywhere.
    """

    endpoint_url: str = "http://localhost:8000/v1"
    api_key_env: str = "EXSEL_API_KEY"
    timeout_s: float = 120.0
    max_retries: int = 3
    max_in_flight: int = 4
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not self.timeout_s > 0:  # NaN too
            raise ValueError("timeout_s must be positive")
        if not (self.backoff_base_s >= 0 and self.backoff_cap_s >= 0):  # NaN too
            raise ValueError("backoff_base_s and backoff_cap_s must be >= 0")


@runtime_checkable
class Transport(Protocol):
    """Low-level wire adapter; retry and concurrency policy live in the client."""

    def complete(self, request: ChatRequest) -> str:
        """Return the first choice's message content for a chat request."""
        ...

    def embed(self, model: str, texts: Sequence[str]) -> list[list[float]]:
        """Return one raw vector per text, in input order."""
        ...
