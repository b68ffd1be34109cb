"""Tests for retry, caching, concurrency bounds, and transport behavior."""

import fcntl
import hashlib
import json
import math
import random
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsel.llm import (
    AuthenticationError,
    ChatRequest,
    ClientError,
    EmbeddingCache,
    HashingEmbeddingTransport,
    HttpTransport,
    LLMClient,
    MalformedResponseError,
    RetryBudgetExceeded,
    TransportConfig,
    TransientServiceError,
)
from exsel.llm import client as client_module
from exsel.llm import mock as hashing
from exsel.llm.cache import cache_key
from mock_transport import MockTransport

CFG = TransportConfig(max_retries=3, max_in_flight=4)
REQ = ChatRequest(model="m", system_prompt="s", user_prompt="u")


def make_client(transport, config=CFG, **kw):
    kw.setdefault("sleep", lambda _: None)
    return LLMClient(transport, config, **kw)


class ScriptedEmbeddings:
    """Embedding service that answers every call with one fixed reply."""

    def __init__(self, reply):
        self.reply = reply
        self.embed_calls = 0

    def complete(self, request):
        raise ClientError("no chat here")

    def embed(self, model, texts):
        self.embed_calls += 1
        return self.reply


class WidthPerCall:
    """Embedding service whose n-th call answers rows of ones, widths[n] wide."""

    def __init__(self, *widths):
        self.widths = widths
        self.embed_calls = 0

    def complete(self, request):
        raise ClientError("no chat here")

    def embed(self, model, texts):
        width = self.widths[self.embed_calls]
        self.embed_calls += 1
        return [[1.0] * width for _ in texts]


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
        assert client.embed_batch("e", []).shape == (0, 0)

    def test_repeated_text_costs_one_call(self):
        transport = MockTransport(embed_fn=lambda text: [float(len(text)), 0.0])
        client = make_client(transport)
        vectors = client.embed_batch("e", ["a", "a"])
        assert transport.embed_calls == 1
        assert np.array_equal(vectors[0], vectors[1])
        assert vectors.shape == (2, 2)

    def test_order_preserving(self):
        transport = MockTransport(embed_fn=lambda text: [float(len(text)), 1.0])
        client = make_client(transport)
        vectors = client.embed_batch("e", ["a", "abc", "ab"])
        assert vectors[:, 0].tolist() == [1.0, 3.0, 2.0]

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
        split = np.vstack([client.embed_batch("e", a), client.embed_batch("e", b)])
        assert np.array_equal(joint, split)

    def test_cache_persists_between_clients(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = MockTransport(embed_fn=lambda text: [1.0, 2.0])
        make_client(first, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        assert first.embed_calls == 1
        second = MockTransport(embed_fn=lambda text: [9.0, 9.0])
        vectors = make_client(second, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        assert second.embed_calls == 0
        assert vectors[0].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "reply",
        [
            [[float("nan"), 1.0], [1.0, 0.0]],
            [[1.0, 0.0], [1.0]],
            [[1.0, 0.0]],
            [[[1.0, 2.0]], [[1.0, 2.0]]],
            [["a", 1.0], [1.0, 0.0]],
        ],
        ids=["nan", "ragged", "row-too-few", "nested", "non-numeric"],
    )
    def test_malformed_reply_never_reaches_the_cache(self, tmp_path, reply):
        path = tmp_path / "embeddings.jsonl"
        with pytest.raises(MalformedResponseError):
            make_client(ScriptedEmbeddings(reply), embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        assert not path.exists() and not EmbeddingCache(path).rows_path.exists()
        healthy = ScriptedEmbeddings([[0.6, 0.8], [1.0, 0.0]])
        matrix = make_client(healthy, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        assert healthy.embed_calls == 1
        assert matrix.tolist() == [[0.6, 0.8], [1.0, 0.0]]

    def test_non_finite_or_empty_record_on_disk_is_fetched_again(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.with_suffix(".f64").write_bytes(np.array([float("nan"), 1.0], "<f8").tobytes())
        records = [
            {"key": cache_key("e", "x"), "width": 2, "offset": 0},
            {"key": cache_key("e", "y"), "width": 0, "offset": 16},
        ]
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        cache = EmbeddingCache(path)
        assert len(cache) == 0
        healthy = ScriptedEmbeddings([[0.6, 0.8], [1.0, 0.0]])
        matrix = make_client(healthy, embedding_cache=cache).embed_batch("e", ["x", "y"])
        assert healthy.embed_calls == 1
        assert matrix.tolist() == [[0.6, 0.8], [1.0, 0.0]]
        assert EmbeddingCache(path).get(cache_key("e", "x")).tolist() == [0.6, 0.8]

    @pytest.mark.parametrize(
        "width, offset",
        [([2], 0), ("a", 0), (2, None), (2, "x"), (2.9, 8.5), (True, 0)],
        ids=["nested", "non-numeric", "null", "string", "float", "bool"],
    )
    def test_record_on_disk_that_does_not_locate_a_row_of_numbers_is_fetched_again(self, tmp_path, width, offset):
        # int() read 2.9 and 8.5 as a row of two floats at byte 8, and true as a row of one
        path = tmp_path / "embeddings.jsonl"
        path.with_suffix(".f64").write_bytes(np.array([1.0, 2.0, 3.0], "<f8").tobytes())
        record = {"key": cache_key("e", "x"), "width": width, "offset": offset}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        cache = EmbeddingCache(path)
        assert len(cache) == 0
        healthy = ScriptedEmbeddings([[0.6, 0.8]])
        assert make_client(healthy, embedding_cache=cache).embed_batch("e", ["x"]).tolist() == [[0.6, 0.8]]
        assert healthy.embed_calls == 1

    def test_api_batches_of_one_call_share_one_width(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        texts = [f"text {i}" for i in range(200)]
        mixed = WidthPerCall(4, 3)
        with pytest.raises(MalformedResponseError, match="dimension"):
            make_client(mixed, embedding_cache=EmbeddingCache(path)).embed_batch("e", texts)
        assert mixed.embed_calls == 2
        assert len(EmbeddingCache(path)) == 128  # the first API batch was whole; the second never reached the file
        healthy = WidthPerCall(4)
        matrix = make_client(healthy, embedding_cache=EmbeddingCache(path)).embed_batch("e", texts)
        assert healthy.embed_calls == 1
        assert matrix.shape == (200, 4)

    def test_fresh_rows_must_match_the_width_of_cached_ones(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        make_client(WidthPerCall(2), embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x"])
        before = path.read_bytes(), path.with_suffix(".f64").read_bytes()
        wider = WidthPerCall(3)
        with pytest.raises(MalformedResponseError, match="dimension must be 2, got 3") as raised:
            make_client(wider, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y"])
        message = str(raised.value)
        assert str(path) in message
        assert "delete the cache file or use another model name" in message
        assert wider.embed_calls == 1
        assert (path.read_bytes(), path.with_suffix(".f64").read_bytes()) == before

    def test_cached_rows_of_two_widths_fail_before_any_call(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put([cache_key("e", "x")], np.array([[1.0, 0.0]]))
        EmbeddingCache(path).put([cache_key("e", "y")], np.array([[1.0, 0.0, 0.0]]))
        before = path.read_bytes(), path.with_suffix(".f64").read_bytes()
        service = WidthPerCall(2)
        with pytest.raises(MalformedResponseError, match="dimension") as raised:
            make_client(service, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x", "y", "z"])
        message = str(raised.value)
        assert str(path) in message
        assert "delete the cache file or use another model name" in message
        assert service.embed_calls == 0
        assert (path.read_bytes(), path.with_suffix(".f64").read_bytes()) == before

    def test_cache_key_depends_on_model(self):
        assert cache_key("m1", "t") != cache_key("m2", "t")

    @pytest.mark.parametrize(
        "corrupt, loaded",
        [
            (lambda lines: [b"not json\n", *lines], {"j": [2.0], "k": [1.0]}),
            (lambda lines: [lines[0], b"\xff\xfe" + lines[1]], {"j": [2.0]}),
            (lambda lines: [b"[" * 100_000 + b"\n", *lines], {"j": [2.0], "k": [1.0]}),
        ],
        ids=["not-json", "not-utf8", "nested-past-the-recursion-limit"],
    )
    def test_cache_skips_corrupt_lines(self, tmp_path, corrupt, loaded):
        path = tmp_path / "cache.jsonl"
        EmbeddingCache(path).put(["j", "k"], np.array([[2.0], [1.0]]))
        path.write_bytes(b"".join(corrupt(path.read_bytes().splitlines(keepends=True))))
        cache = EmbeddingCache(path)
        assert {key: cache.get(key).tolist() for key in "jk" if key in cache} == loaded
        assert len(cache) == len(loaded)

    @pytest.mark.parametrize(
        "record",
        [{"key": ["k"], "width": 1, "offset": 0}, ["k", 1, 0], {"width": 1, "offset": 0}],
        ids=["list-key", "array", "no-key"],
    )
    def test_cache_skips_records_without_a_usable_key(self, tmp_path, record):
        path = tmp_path / "cache.jsonl"
        EmbeddingCache(path).put(["j", "k"], np.array([[2.0], [1.0]]))
        good = path.read_text(encoding="utf-8").splitlines()[1]  # k's row at offset 8; the record points at j's
        path.write_text(json.dumps(record) + "\n" + good + "\n", encoding="utf-8")
        cache = EmbeddingCache(path)
        assert cache.get("k").tolist() == [1.0]
        assert len(cache) == 1

    def test_put_after_truncated_last_line_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EmbeddingCache(path)
        cache.put(list("abc"), np.array([[1.0, 2.0]] * 3))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]) + lines[2][:-7])  # a crash cut record "c" short
        cache = EmbeddingCache(path)
        assert "c" not in cache
        cache.put(["c", "d"], np.array([[3.0, 4.0], [5.0, 6.0]]))
        reloaded = EmbeddingCache(path)
        assert {key: reloaded.get(key).tolist() for key in "abcd"} == {
            "a": [1.0, 2.0], "b": [1.0, 2.0], "c": [3.0, 4.0], "d": [5.0, 6.0],
        }
        assert path.read_bytes().startswith(b"".join(lines[:2]))


class TestEmbeddingStore:
    """Rows go to `<name>.f64` as little-endian float64 before their index lines reach `<name>.jsonl`."""

    @staticmethod
    def rows(cache):
        return {key: cache.get(key).tolist() for key in "abcd" if key in cache}

    def test_rows_are_raw_little_endian_float64_at_their_offsets(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "embeddings.jsonl")
        cache.put(["a", "b"], np.array([[0.1, -2.0], [3.0, 1e-300]]))
        assert cache.rows_path == tmp_path / "embeddings.f64"
        assert cache.rows_path.read_bytes() == np.array([[0.1, -2.0], [3.0, 1e-300]], "<f8").tobytes()
        lines = [json.loads(line) for line in cache.path.read_text(encoding="utf-8").splitlines()]
        assert lines == [{"key": "a", "width": 2, "offset": 0}, {"key": "b", "width": 2, "offset": 16}]
        key = 'é "\\ \x00 😀'  # a line holds the key as json.dumps writes it: ASCII, with escapes
        cache.put([key], np.array([[5.0, 6.0]]))
        last = cache.path.read_bytes().splitlines()[-1]
        assert last == f'{{"key": {json.dumps(key)}, "width": 2, "offset": 32}}'.encode("ascii")

    def test_cut_inside_a_row_loses_only_that_row_and_later_bytes_do_not_revive_it(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put(list("abc"), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        rows_path = path.with_suffix(".f64")
        rows_path.write_bytes(rows_path.read_bytes()[:40])  # c's row was bytes 32..48
        cache = EmbeddingCache(path)
        assert self.rows(cache) == {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        cache.put(["d"], np.array([[7.0, 8.0]]))  # lands at byte 40, inside c's old range
        assert self.rows(EmbeddingCache(path)) == {"a": [1.0, 2.0], "b": [3.0, 4.0], "d": [7.0, 8.0]}
        rows_path.write_bytes(rows_path.read_bytes()[:50])  # a second cut, inside d: c's old range is whole again
        cache = EmbeddingCache(path)
        assert self.rows(cache) == {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        cache.put(["c"], np.array([[9.0, 9.5]]))
        assert self.rows(EmbeddingCache(path)) == {"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [9.0, 9.5]}

    def test_orphan_bytes_from_a_crash_before_the_index_are_never_read(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put(["a"], np.array([[1.0, 2.0]]))
        with path.with_suffix(".f64").open("ab") as fh:
            fh.write(np.array([[9.0, 9.0]], "<f8").tobytes()[:11])
        cache = EmbeddingCache(path)
        assert self.rows(cache) == {"a": [1.0, 2.0]}
        cache.put(["b"], np.array([[3.0, 4.0]]))
        assert self.rows(EmbeddingCache(path)) == {"a": [1.0, 2.0], "b": [3.0, 4.0]}

    def test_index_line_past_the_end_of_the_rows_is_skipped(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put(["a"], np.array([[1.0, 2.0]]))
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": "b", "width": 2, "offset": 16}) + "\n")
            fh.write(json.dumps({"key": "c", "width": -1, "offset": 0}) + "\n")
            fh.write(json.dumps({"key": "d", "width": 2, "offset": -16}) + "\n")
            fh.write('{"key": "b", "width": Infinity, "offset": 0}\n')  # json reads it; int() overflows
        assert self.rows(EmbeddingCache(path)) == {"a": [1.0, 2.0]}

    def test_two_caches_on_one_path_interleave_their_puts(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        first, second = EmbeddingCache(path), EmbeddingCache(path)
        first.put(["a"], np.array([[1.0, 2.0]]))
        second.put(["b"], np.array([[3.0, 4.0]]))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "x", "wid')  # a third writer crashed inside its line
        first.put(["c"], np.array([[5.0, 6.0]]))  # lands on a fresh line, after the other writers' bytes
        second.put(["d"], np.array([[7.0, 8.0]]))
        assert self.rows(EmbeddingCache(path)) == {"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0], "d": [7.0, 8.0]}

    def test_a_put_waits_for_a_writer_between_its_two_appends(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        EmbeddingCache(path).put(["a"], np.array([[1.0, 2.0]]))
        cache = EmbeddingCache(path)
        with path.with_suffix(".f64").open("ab") as other:
            fcntl.flock(other, fcntl.LOCK_EX)  # the other writer holds the lock across its two appends
            waiting = threading.Thread(target=cache.put, args=(["b"], np.array([[3.0, 4.0]])))
            waiting.start()
            waiting.join(0.2)
            assert waiting.is_alive()
            other.write(np.array([[5.0, 6.0]], "<f8").tobytes())
            other.flush()
            with path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"key": "c", "width": 2, "offset": 16}) + "\n")
        waiting.join(5)
        assert not waiting.is_alive()
        assert self.rows(EmbeddingCache(path)) == {"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]}

    def test_an_index_named_like_its_row_file_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="must not end in .f64"):
            EmbeddingCache(tmp_path / "embeddings.f64")

    def test_old_format_line_is_skipped_and_its_text_embedded_again_once(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        old = {"key": cache_key("e", "x"), "vector": [0.6, 0.8]}
        path.write_text(json.dumps(old) + "\n", encoding="utf-8")
        assert len(EmbeddingCache(path)) == 0
        service = ScriptedEmbeddings([[0.0, 1.0]])
        assert make_client(service, embedding_cache=EmbeddingCache(path)).embed_batch("e", ["x"]).tolist() == [[0.0, 1.0]]
        assert service.embed_calls == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [sorted(json.loads(line)) for line in lines] == [["key", "vector"], ["key", "offset", "width"]]
        again = make_client(ScriptedEmbeddings(None), embedding_cache=EmbeddingCache(path))
        assert again.embed_batch("e", ["x"]).tolist() == [[0.0, 1.0]]
        assert again.transport.embed_calls == 0


def oracle_vector(text, dimension, ngram):
    """The hashing embedder's definition, one text and one gram at a time: the batch code must match it bit for bit."""
    vec = [0.0] * dimension
    padded = f" {text.lower()} "
    for i in range(max(1, len(padded) - ngram + 1)):
        digest = hashlib.blake2b(padded[i : i + ngram].encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest[:4], "big") % dimension] += 1.0 if digest[4] & 1 else -1.0
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return [v / norm for v in vec]


texts_for_hashing = st.one_of(
    st.text(max_size=16),
    st.text(alphabet=" aAbİß\x00", max_size=8),  # double spaces, and "İ", whose lowercase is two code points
)


class TestEmbedBatchSharesItsMatrix:
    """The matrix `embed_batch` returns holds each fresh row once: the cache keeps a view of it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), pool=st.lists(texts_for_hashing.filter(bool), min_size=1, max_size=8, unique=True))
    def test_mixes_of_fresh_cached_and_repeated_texts_equal_the_per_text_oracle(self, data, pool):
        cached = data.draw(st.lists(st.sampled_from(pool), max_size=8), label="cached")
        batch = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16), label="batch")
        chunk = data.draw(st.integers(1, 4), label="texts per service call")
        read_back = data.draw(st.booleans(), label="cached rows read back from the row file")
        hasher = HashingEmbeddingTransport(dimension=16)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(client_module, "_EMBED_API_BATCH", chunk):
            path = Path(tmp) / "embeddings.jsonl"
            client = make_client(hasher, embedding_cache=EmbeddingCache(path))
            client.embed_batch("e", cached)
            if read_back:
                client = make_client(hasher, embedding_cache=EmbeddingCache(path))
            got = client.embed_batch("e", batch)
        assert got.tobytes() == np.array([oracle_vector(t, 16, 3) for t in batch]).tobytes()
        assert not got.flags.writeable
        keys = [cache_key("e", text) for text in batch]
        fresh = {cache_key("e", text) for text in batch} - {cache_key("e", text) for text in cached}
        for row, key in enumerate(keys):
            # only the first row of a fresh text is the cache's row; the rest are copies of it
            shared = key in fresh and keys.index(key) == row
            assert np.shares_memory(got[row], client.cache.get(key)) is shared
            assert not client.cache.get(key).flags.writeable

    def test_the_returned_matrix_cannot_be_written(self):
        client = make_client(MockTransport(embed_fn=lambda text: [1.0, 2.0]))
        matrix = client.embed_batch("e", ["x", "y", "x"])
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 9.0
        assert client.embed_batch("e", ["x"]).tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("read_back", [False, True], ids=["put", "read-back"])
    def test_a_cached_row_cannot_be_written(self, tmp_path, read_back):
        path = tmp_path / "embeddings.jsonl"
        client = make_client(MockTransport(embed_fn=lambda text: [1.0, 2.0]), embedding_cache=EmbeddingCache(path))
        client.embed_batch("e", ["x"])
        if read_back:
            client = make_client(MockTransport(), embedding_cache=EmbeddingCache(path))
        row = client.cache.get(cache_key("e", "x"))
        with pytest.raises(ValueError, match="read-only"):
            row[:] = 9.0
        assert client.embed_batch("e", ["x"]).tolist() == [[1.0, 2.0]]

    def test_put_keeps_a_read_only_view_and_leaves_the_callers_rows_writable(self):
        cache, rows = EmbeddingCache(), np.array([[1.0, 2.0], [3.0, 4.0]])
        cache.put(["a", "b"], rows)
        assert not cache.get("a").flags.writeable and rows.flags.writeable
        assert np.shares_memory(cache.get("b"), rows)


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

    def test_chat_many_at_width_one_stops_at_the_failing_request(self):
        # a one-worker executor would have taken request 8 before the failure of request 7 reached the caller
        reqs = [ChatRequest(model="m", system_prompt="s", user_prompt=f"p{i}") for i in range(20)]

        def reply(request):
            if request is reqs[7]:
                raise ClientError("rejected")
            return request.user_prompt

        transport = MockTransport(chat_fn=reply)
        with pytest.raises(ClientError):
            make_client(transport, TransportConfig(max_in_flight=1)).chat_many(reqs)
        assert transport.chat_requests == reqs[:8]

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

    def test_embedding_count_mismatch(self, monkeypatch, tmp_path):
        payload = {"data": [{"index": 0, "embedding": [1.0]}]}
        transport = self._patched(monkeypatch, FakeResponse(200, payload))
        path = tmp_path / "embeddings.jsonl"
        client = make_client(transport, embedding_cache=EmbeddingCache(path))
        with pytest.raises(MalformedResponseError, match="asked for 2 embeddings, got 1"):
            client.embed_batch("e", ["a", "b"])
        assert len(client.cache) == 0
        assert not path.exists()

    @pytest.mark.parametrize(
        "indices", [[1, 1, 5], [0, 2, 3], [1, 2, 3], [0, 0, 1]], ids=["repeated-and-past-end", "gap", "from-one", "repeated"]
    )
    def test_embedding_indices_must_number_the_rows(self, monkeypatch, tmp_path, indices):
        payload = {"data": [{"index": i, "embedding": [float(n), 1.0]} for n, i in enumerate(indices)]}
        transport = self._patched(monkeypatch, FakeResponse(200, payload))
        path = tmp_path / "embeddings.jsonl"
        client = make_client(transport, embedding_cache=EmbeddingCache(path))
        with pytest.raises(MalformedResponseError, match="index"):
            client.embed_batch("e", ["a", "b", "c"])
        assert len(client.cache) == 0
        assert not path.exists()

    def test_network_error_is_transient(self, monkeypatch):
        import requests

        transport = HttpTransport(TransportConfig(endpoint_url="http://svc/v1"))

        def refused(url, json=None, headers=None, timeout=None):
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(transport._session, "post", refused)
        with pytest.raises(TransientServiceError, match="connection refused"):
            transport.complete(REQ)


class TestHashingEmbeddingTransport:
    def test_deterministic(self):
        t = HashingEmbeddingTransport(dimension=16)
        assert t.embed("e", ["some text"]).tobytes() == t.embed("e", ["some text"]).tobytes()

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

    @pytest.mark.parametrize("ngram", [0, -1])
    def test_ngram_below_one_rejected(self, ngram):
        with pytest.raises(ValueError, match="ngram"):
            HashingEmbeddingTransport(ngram=ngram)

    def test_instances_agree_whatever_each_has_seen(self):
        texts = ["quarterly revenue rose", "the cat sat", "quarterly revenue fell"]
        warm = HashingEmbeddingTransport(dimension=32)
        warm.embed("e", list(reversed(texts)))
        assert warm.embed("e", texts).tobytes() == HashingEmbeddingTransport(dimension=32).embed("e", texts).tobytes()

    def test_repeated_text_gives_the_same_vector(self):
        t = HashingEmbeddingTransport(dimension=16)
        first, second = t.embed("e", ["repeat me", "repeat me"])
        assert first.tobytes() == second.tobytes() == t.embed("e", ["repeat me"])[0].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dimension=st.integers(2, 64),
        ngram=st.integers(1, 6),
        texts=st.lists(texts_for_hashing, min_size=1, max_size=12),
    )
    def test_batches_equal_the_per_text_oracle_bit_for_bit(self, data, dimension, ngram, texts):
        batch = texts + data.draw(st.lists(st.sampled_from(texts), max_size=6), label="repeats")
        split = data.draw(st.integers(0, len(batch)), label="split")
        hasher = HashingEmbeddingTransport(dimension=dimension, ngram=ngram)
        parts = []
        for part in (batch[:split], batch[split:]):
            # table=False sends the batch down the path for alphabets too large for the lookup table, so a
            # gram the first batch hashed on one path is looked up on the other
            table = data.draw(st.booleans(), label="table")
            with mock.patch.object(hashing, "_GRAM_TABLE_MAX", hashing._GRAM_TABLE_MAX if table else 0):
                parts.append(hasher.embed("e", part))
        got = np.vstack(parts)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([oracle_vector(t, dimension, ngram) for t in batch]).tobytes()

    def test_each_distinct_gram_is_hashed_once_per_instance(self):
        # "x ab" holds " ab" with the text's own space, "ab" with a pad space: one gram, hashed once
        batches = [["x ab", "ab", "the cat sat"], ["a cat", "x ab", "sat on the mat"], ["ab", "mat"]]
        hasher = HashingEmbeddingTransport(dimension=16)
        hashed = []
        with mock.patch.object(hasher, "_feature", side_effect=lambda gram: hashed.append(gram) or 1):
            for batch in batches:
                hasher.embed("e", batch)
        padded = {f" {text} " for batch in batches for text in batch}
        assert sorted(hashed) == sorted({text[i : i + 3] for text in padded for i in range(len(text) - 2)})

    def test_threads_sharing_an_instance_get_the_vectors_of_fresh_ones(self):
        rng = random.Random(1)
        batches = [["".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=40)) for _ in range(8)] for _ in range(32)]
        want = [HashingEmbeddingTransport(dimension=16).embed("e", batch).tobytes() for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared, got = HashingEmbeddingTransport(dimension=16), {}

                def embed(i):
                    got[i] = shared.embed("e", batches[i]).tobytes()

                threads = [threading.Thread(target=embed, args=(i,)) for i in range(len(batches))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert [got.get(i) for i in range(len(batches))] == want
        finally:
            sys.setswitchinterval(interval)

    def test_an_instance_keeps_under_48_bytes_per_distinct_gram(self):
        rng = random.Random(0)
        texts = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=60)) for _ in range(400)]
        grams = {f" {text} "[i : i + 3] for text in texts for i in range(len(text))}
        assert len(grams) >= 5000
        tracemalloc.start()
        try:
            hasher = HashingEmbeddingTransport(dimension=32)
            for i in range(0, len(texts), 128):
                hasher.embed("e", texts[i : i + 128])
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 48 * len(grams)

    def test_a_short_text_never_shares_a_gram_id_with_a_whole_gram(self):
        # at ngram 4, "a" pads to " a ", one gram shorter than 4, whose code runs on into the
        # next text's leading space: the symbols of the whole gram " a  " of "a  b"
        texts = ["a", "a  b", "a"]
        got = HashingEmbeddingTransport(dimension=16, ngram=4).embed("e", texts)
        assert got.tobytes() == np.array([oracle_vector(t, 16, 4) for t in texts]).tobytes()

    @pytest.mark.parametrize("dimension", [127, 128, 255, 256])
    def test_features_at_the_edge_of_a_narrow_type_keep_their_coordinate_and_sign(self, dimension):
        # the table keeps features ±(coordinate + 1) in the narrowest type that holds ±dimension
        rng = random.Random(dimension)
        texts = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=80)) for _ in range(64)]
        hasher = HashingEmbeddingTransport(dimension=dimension)
        got = np.vstack([hasher.embed("e", texts[:32]), hasher.embed("e", texts[16:])])
        assert {-dimension, dimension} <= set(hasher._table[1].tolist())
        assert got.tobytes() == np.array([oracle_vector(t, dimension, 3) for t in texts[:32] + texts[16:]]).tobytes()

    def test_grams_that_cancel_give_the_first_axis(self):
        # " aa " has two 3-grams; at dimension 2 their signs cancel
        assert HashingEmbeddingTransport(dimension=2, ngram=3).embed("e", ["aa", "b"]).tolist()[0] == [1.0, 0.0]

    def test_text_shorter_than_ngram(self):
        # "a" pads to " a ", shorter than a 5-gram: one gram, the whole padded text
        t = HashingEmbeddingTransport(dimension=16, ngram=5)
        (vec,) = t.embed("e", ["a"])
        assert sum(v * v for v in vec) == pytest.approx(1.0)
        assert sorted(abs(v) for v in vec)[-1] == 1.0
