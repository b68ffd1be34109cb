"""Tests for retry, caching, concurrency bounds, and transport behavior."""

import json
import threading

import pytest

from exsel.llm import (
    AuthenticationError,
    ChatRequest,
    ClientError,
    EmbeddingCache,
    HashingEmbeddingTransport,
    HttpTransport,
    LLMClient,
    MalformedResponseError,
    MockTransport,
    RetryBudgetExceeded,
    TransportConfig,
    TransientServiceError,
)
from exsel.llm.cache import cache_key

CFG = TransportConfig(max_retries=3, max_in_flight=4)
REQ = ChatRequest(model="m", system_prompt="s", user_prompt="u")


def make_client(transport, config=CFG, **kw):
    kw.setdefault("sleep", lambda _: None)
    return LLMClient(transport, config, **kw)


class TestChatRequest:
    def test_rejects_empty_prompts(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", system_prompt="", user_prompt="u")

    def test_rejects_out_of_range_temperature(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", system_prompt="s", user_prompt="u", temperature=2.5)

    def test_temperature_zero_allowed(self):
        assert ChatRequest(model="m", system_prompt="s", user_prompt="u", temperature=0.0).temperature == 0.0


class TestChatRetries:
    def test_passthrough(self):
        client = make_client(MockTransport(replies=["ok"]))
        assert client.chat(REQ) == "ok"

    def test_two_failures_then_success(self):
        transport = MockTransport(
            replies=[TransientServiceError("429"), TransientServiceError("503"), "ok"]
        )
        client = make_client(transport)
        assert client.chat(REQ) == "ok"
        assert transport.chat_calls == 3

    def test_exhaustion_after_max_retries(self):
        transport = MockTransport(replies=[TransientServiceError("429")] * 10)
        client = make_client(transport, TransportConfig(max_retries=2))
        with pytest.raises(RetryBudgetExceeded):
            client.chat(REQ)
        assert transport.chat_calls == 3

    def test_auth_error_not_retried(self):
        transport = MockTransport(replies=[AuthenticationError("401"), "never"])
        client = make_client(transport)
        with pytest.raises(AuthenticationError):
            client.chat(REQ)
        assert transport.chat_calls == 1

    def test_backoff_is_exponential(self):
        delays = []
        transport = MockTransport(replies=[TransientServiceError("x")] * 4)
        client = LLMClient(transport, TransportConfig(max_retries=3, backoff_base_s=1.0), sleep=delays.append)
        with pytest.raises(RetryBudgetExceeded):
            client.chat(REQ)
        assert delays == [1.0, 2.0, 4.0]


class TestEmbedBatch:
    def test_empty_input(self):
        client = make_client(MockTransport())
        assert client.embed_batch("e", []) == []

    def test_repeated_text_costs_one_call(self):
        transport = MockTransport(embed_fn=lambda text: [float(len(text)), 0.0])
        client = make_client(transport)
        vectors = client.embed_batch("e", ["a", "a"])
        assert transport.embed_calls == 1
        assert vectors[0] == vectors[1]
        assert vectors[0].dimension == 2

    def test_order_preserving(self):
        transport = MockTransport(embed_fn=lambda text: [float(len(text)), 1.0])
        client = make_client(transport)
        vectors = client.embed_batch("e", ["a", "abc", "ab"])
        assert [v.values[0] for v in vectors] == [1.0, 3.0, 2.0]

    def test_dimension_mismatch_rejected(self):
        transport = MockTransport(embed_fn=lambda text: [0.0] * len(text))
        client = make_client(transport)
        with pytest.raises(MalformedResponseError, match="dimension"):
            client.embed_batch("e", ["a", "ab"])

    def test_empty_text_rejected(self):
        client = make_client(MockTransport())
        with pytest.raises(ValueError):
            client.embed_batch("e", ["a", ""])

    def test_concatenation_equals_separate_calls(self):
        fn = lambda text: [float(len(text)), float(ord(text[0]))]
        a, b = ["aa", "b"], ["ccc", "d"]
        joint = make_client(MockTransport(embed_fn=fn)).embed_batch("e", a + b)
        client = make_client(MockTransport(embed_fn=fn))
        split = client.embed_batch("e", a) + client.embed_batch("e", b)
        assert joint == split

    def test_cache_persists_between_clients(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = MockTransport(embed_fn=lambda text: [1.0, 2.0])
        make_client(first, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        assert first.embed_calls == 1
        second = MockTransport(embed_fn=lambda text: [9.0, 9.0])
        vectors = make_client(second, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        assert second.embed_calls == 0
        assert vectors[0].values == (1.0, 2.0)

    def test_cache_key_depends_on_model(self):
        assert cache_key("m1", "t") != cache_key("m2", "t")

    def test_cache_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({"key": "k", "vector": [1.0]})
        path.write_text("not json\n" + good + "\n", encoding="utf-8")
        cache = EmbeddingCache(path)
        assert cache.get("k") == (1.0,)
        assert len(cache) == 1

    def test_put_after_truncated_last_line_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        for key in "abc":
            cache.put(key, (1.0, 2.0))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + lines[2][:-7])  # a crash cut record "c" short
        cache = EmbeddingCache(path)
        assert "c" not in cache
        cache.put("c", (3.0, 4.0))
        cache.put("d", (5.0, 6.0))
        reloaded = EmbeddingCache(path)
        assert {key: reloaded.get(key) for key in "abcd"} == {
            "a": (1.0, 2.0), "b": (1.0, 2.0), "c": (3.0, 4.0), "d": (5.0, 6.0),
        }
        assert path.read_bytes().startswith(b"".join(lines[:2]))


class TestConcurrencyBound:
    def test_chat_many_never_exceeds_max_in_flight(self):
        barrier_hits = []
        lock = threading.Lock()

        def slow_chat(request):
            with lock:
                barrier_hits.append(None)
            threading.Event().wait(0.01)
            return "ok"

        transport = MockTransport(chat_fn=slow_chat)
        client = make_client(transport, TransportConfig(max_in_flight=3))
        results = client.chat_many([REQ] * 20)
        assert results == ["ok"] * 20
        assert transport.max_observed_in_flight <= 3

    def test_chat_many_preserves_order(self):
        transport = MockTransport(chat_fn=lambda req: req.user_prompt)
        client = make_client(transport, TransportConfig(max_in_flight=4))
        reqs = [ChatRequest(model="m", system_prompt="s", user_prompt=f"p{i}") for i in range(10)]
        assert client.chat_many(reqs) == [f"p{i}" for i in range(10)]


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class TestHttpTransport:
    def _patched(self, monkeypatch, response, capture=None):
        transport = HttpTransport(TransportConfig(endpoint_url="http://svc/v1", api_key_env="X_KEY"))

        def fake_post(url, json=None, headers=None, timeout=None):
            if capture is not None:
                capture.update({"url": url, "json": json, "headers": headers})
            return response

        monkeypatch.setattr(transport._session, "post", fake_post)
        return transport

    def test_chat_parses_first_choice(self, monkeypatch):
        payload = {"choices": [{"message": {"content": "hello"}}]}
        transport = self._patched(monkeypatch, FakeResponse(200, payload))
        assert transport.complete(REQ) == "hello"

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("X_KEY", "secret-token")
        captured = {}
        payload = {"choices": [{"message": {"content": "x"}}]}
        transport = self._patched(monkeypatch, FakeResponse(200, payload), captured)
        transport.complete(REQ)
        assert captured["headers"]["Authorization"] == "Bearer secret-token"
        assert captured["url"] == "http://svc/v1/chat/completions"

    def test_status_mapping(self, monkeypatch):
        for status, exc in [(401, AuthenticationError), (429, TransientServiceError), (503, TransientServiceError), (400, ClientError)]:
            transport = self._patched(monkeypatch, FakeResponse(status, {}))
            with pytest.raises(exc):
                transport.complete(REQ)

    def test_missing_content_is_malformed(self, monkeypatch):
        transport = self._patched(monkeypatch, FakeResponse(200, {"choices": []}))
        with pytest.raises(MalformedResponseError):
            transport.complete(REQ)

    def test_embeddings_sorted_by_index(self, monkeypatch):
        payload = {
            "data": [
                {"index": 1, "embedding": [2.0]},
                {"index": 0, "embedding": [1.0]},
            ]
        }
        transport = self._patched(monkeypatch, FakeResponse(200, payload))
        assert transport.embed("e", ["a", "b"]) == [[1.0], [2.0]]

    def test_embedding_count_mismatch(self, monkeypatch):
        payload = {"data": [{"index": 0, "embedding": [1.0]}]}
        transport = self._patched(monkeypatch, FakeResponse(200, payload))
        with pytest.raises(MalformedResponseError):
            transport.embed("e", ["a", "b"])


class TestHashingEmbeddingTransport:
    def test_deterministic(self):
        t = HashingEmbeddingTransport(dimension=16)
        assert t.embed("e", ["some text"]) == t.embed("e", ["some text"])

    def test_unit_norm(self):
        t = HashingEmbeddingTransport(dimension=16)
        (vec,) = t.embed("e", ["hello world"])
        assert sum(v * v for v in vec) == pytest.approx(1.0)

    def test_similar_texts_closer_than_dissimilar(self):
        t = HashingEmbeddingTransport(dimension=32)
        a, b, c = t.embed("e", [
            "quarterly revenue rose to 120 million dollars",
            "quarterly revenue fell to 90 million dollars",
            "the cat sat quietly on a warm windowsill",
        ])
        dot = lambda x, y: sum(p * q for p, q in zip(x, y))
        assert dot(a, b) > dot(a, c)

    def test_chat_unsupported(self):
        with pytest.raises(ClientError):
            HashingEmbeddingTransport().complete(REQ)
