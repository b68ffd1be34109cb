"""Tests for the synthetic generation stage."""

import json

import pytest

from exsel.generate import (
    GenerationConfig,
    GenerationError,
    draw_temperature,
    generate_pool,
)
from exsel.llm import (
    AuthenticationError,
    LLMClient,
    MalformedResponseError,
    TransportConfig,
    TransientServiceError,
)
from mock_transport import MockTransport


def make_client(transport):
    return LLMClient(transport, TransportConfig(max_retries=0, max_in_flight=1), sleep=lambda _: None)


def records(n, positive=True, label="Revenue"):
    if positive:
        return [{"text": f"Revenue was {i}.", "entities": {label: [str(i)]}} for i in range(n)]
    return [{"text": f"Plain sentence {i}.", "entities": {}} for i in range(n)]


CHUNKS = ["alpha chunk text", "beta chunk text"]


class TestConfig:
    def test_rejects_negative_floor_temperature(self):
        with pytest.raises(ValueError):
            GenerationConfig(n_total=10, base_temperature=0.1, temperature_jitter=0.2)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            GenerationConfig(n_total=10, positive_fraction=1.5)


class TestDrawTemperature:
    CFG = GenerationConfig(n_total=100, base_temperature=0.7, temperature_jitter=0.2)

    def test_zero_jitter_is_exact(self):
        cfg = GenerationConfig(n_total=10, base_temperature=0.7, temperature_jitter=0.0)
        assert draw_temperature(cfg, 1, 0) == 0.7

    def test_within_band(self):
        for batch in range(200):
            t = draw_temperature(self.CFG, 42, batch)
            assert 0.5 <= t <= 0.9

    def test_deterministic_per_key(self):
        assert draw_temperature(self.CFG, 7, 3) == draw_temperature(self.CFG, 7, 3)
        assert draw_temperature(self.CFG, 7, 3) != draw_temperature(self.CFG, 7, 4)
        assert draw_temperature(self.CFG, 7, 3) != draw_temperature(self.CFG, 8, 3)


class TestGeneratePool:
    def test_single_clean_batch(self):
        cfg = GenerationConfig(n_total=20, batch_size=20, positive_fraction=1.0, labels=("Revenue",))
        client = make_client(MockTransport(replies=[json.dumps(records(20))]))
        examples, report = generate_pool(cfg, CHUNKS, client, model="m", seed=0)
        assert len(examples) == 20
        assert report["parsed_ok"] == 20
        assert report["rejected"] == 0
        assert all(ex.provenance == "synthetic" for ex in examples)
        assert all(ex.entities for ex in examples)

    def test_two_streams_balanced(self):
        cfg = GenerationConfig(n_total=40, batch_size=20, positive_fraction=0.5)
        transport = MockTransport(replies=[json.dumps(records(20)), json.dumps(records(20, positive=False))])
        examples, report = generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        assert transport.chat_calls == 2
        assert report["per_stream"]["positive"]["parsed_ok"] == 20
        assert report["per_stream"]["negative"]["parsed_ok"] == 20
        positives = [ex for ex in examples if ex.entities]
        assert len(positives) == 20

    def test_stream_constraint_rejections(self):
        # a record with entities arrives on the negative stream
        cfg = GenerationConfig(n_total=2, batch_size=2, positive_fraction=0.0)
        mixed = [
            {"text": "has entity", "entities": {"Revenue": ["5"]}},
            {"text": "clean", "entities": {}},
        ]
        client = make_client(MockTransport(replies=[json.dumps(mixed)]))
        examples, report = generate_pool(cfg, CHUNKS, client, model="m", seed=0)
        assert len(examples) == 1
        assert report["rejection_reasons"] == {"stream-constraint": 1}
        assert report["per_stream"]["negative"]["rejected"] == 1

    def test_schema_rejections_tallied(self):
        cfg = GenerationConfig(n_total=3, batch_size=3, positive_fraction=1.0)
        bad = [
            {"text": "", "entities": {"A": ["1"]}},
            {"text": "ok text", "entities": {"A": "not-a-list"}},
            {"text": "fine", "entities": {"A": ["1"]}},
        ]
        client = make_client(MockTransport(replies=[json.dumps(bad)]))
        examples, report = generate_pool(cfg, CHUNKS, client, model="m", seed=0)
        assert len(examples) == 1
        assert report["rejection_reasons"] == {"schema": 2}
        assert report["parsed_ok"] + report["rejected"] == 3

    def test_excess_records_rejected_not_dropped(self):
        cfg = GenerationConfig(n_total=2, batch_size=2, positive_fraction=1.0)
        client = make_client(MockTransport(replies=[json.dumps(records(5))]))
        examples, report = generate_pool(cfg, CHUNKS, client, model="m", seed=0)
        assert len(examples) == 2
        assert report["rejection_reasons"] == {"excess": 3}

    def test_unparseable_batch_retried_once_then_tallied(self):
        cfg = GenerationConfig(n_total=2, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(replies=["garbage", json.dumps(records(2))])
        examples, report = generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        assert transport.chat_calls == 2
        assert len(examples) == 2
        assert report["failed_batches"] == 0

    def test_batch_failing_twice_is_skipped(self):
        cfg = GenerationConfig(n_total=4, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(
            replies=["garbage", "also garbage", json.dumps(records(2))]
        )
        examples, report = generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        assert len(examples) == 2
        assert report["failed_batches"] == 1
        assert report["batch_failure_reasons"] == {"parse-failure": 1}

    def test_client_error_skips_batch(self):
        cfg = GenerationConfig(n_total=4, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(
            replies=[TransientServiceError("503"), json.dumps(records(2))]
        )
        examples, report = generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        assert len(examples) == 2
        assert report["batch_failure_reasons"] == {"client-error": 1}

    def test_malformed_reply_skips_batch(self):
        cfg = GenerationConfig(n_total=4, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(replies=[MalformedResponseError("no content"), json.dumps(records(2))])
        examples, report = generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        assert len(examples) == 2
        assert report["batch_failure_reasons"] == {"client-error": 1}

    def test_authentication_error_stops_generation(self):
        cfg = GenerationConfig(n_total=6, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(
            replies=[json.dumps(records(2)), AuthenticationError("401"), json.dumps(records(2))]
        )
        with pytest.raises(AuthenticationError):
            generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        assert transport.chat_calls == 2

    def test_empty_batch_counts_as_success(self):
        cfg = GenerationConfig(n_total=2, batch_size=2, positive_fraction=1.0)
        examples, report = generate_pool(cfg, CHUNKS, make_client(MockTransport(replies=["[]"])), model="m", seed=0)
        assert examples == []
        assert report["failed_batches"] == 0
        assert report["per_stream"] == {}

    def test_all_batches_failing_is_fatal(self):
        cfg = GenerationConfig(n_total=2, batch_size=2)
        client = make_client(MockTransport(replies=["x", "y", "z", "w"]))
        with pytest.raises(GenerationError):
            generate_pool(cfg, CHUNKS, client, model="m", seed=0)

    def test_ids_unique_and_fresh(self):
        cfg = GenerationConfig(n_total=40, batch_size=10, positive_fraction=0.5)
        replies = [json.dumps(records(10)) for _ in range(2)] + [
            json.dumps(records(10, positive=False)) for _ in range(2)
        ]
        client = make_client(MockTransport(replies=replies))
        examples, _ = generate_pool(cfg, CHUNKS, client, model="m", seed=0)
        ids = [ex.id for ex in examples]
        assert len(set(ids)) == len(ids) == 40

    def test_chunks_reused_round_robin(self):
        cfg = GenerationConfig(n_total=8, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(chat_fn=lambda req: json.dumps(records(2)))
        generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=0)
        prompts = [req.user_prompt for req in transport.chat_requests]
        assert "alpha chunk text" in prompts[0]
        assert "beta chunk text" in prompts[1]
        assert "alpha chunk text" in prompts[2]

    def test_temperatures_follow_schedule(self):
        cfg = GenerationConfig(n_total=8, batch_size=2, positive_fraction=1.0)
        transport = MockTransport(chat_fn=lambda req: json.dumps(records(2)))
        generate_pool(cfg, CHUNKS, make_client(transport), model="m", seed=5)
        for batch_index, req in enumerate(transport.chat_requests):
            assert req.temperature == draw_temperature(cfg, 5, batch_index)

    def test_deterministic_with_mock(self):
        cfg = GenerationConfig(n_total=6, batch_size=3, positive_fraction=0.5)

        def scripted(req):
            positive = "NO extractable" not in req.user_prompt
            return json.dumps(records(3, positive=positive))

        runs = []
        for _ in range(2):
            client = make_client(MockTransport(chat_fn=scripted))
            runs.append(generate_pool(cfg, CHUNKS, client, model="m", seed=3))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_requires_chunks(self):
        cfg = GenerationConfig(n_total=2)
        with pytest.raises(ValueError):
            generate_pool(cfg, [], make_client(MockTransport()), model="m", seed=0)


# one record per case, alone in a batch of one on its stream: the rejection reason, or the (text, entities) kept
RECORD_CASES = {
    "empty-label-positive": ("positive", {"text": "t", "entities": {"": []}}, "schema"),
    "empty-label-negative": ("negative", {"text": "t", "entities": {"": []}}, "schema"),
    "no-values-positive": ("positive", {"text": "t", "entities": {"x": []}}, "stream-constraint"),
    "no-values-negative": ("negative", {"text": "t", "entities": {"x": []}}, ("t", {})),
    "no-values-label-dropped": ("positive", {"text": "t", "entities": {"x": [], "y": ["v"]}}, ("t", {"y": {"v"}})),
    "extra-id-key": ("positive", {"id": "a", "text": "t", "entities": {"x": ["v"]}}, "schema"),
    "whitespace-text": ("negative", {"text": "   ", "entities": {}}, "schema"),
    "non-string-text": ("negative", {"text": 5, "entities": {}}, "schema"),
    "missing-text": ("negative", {"entities": {}}, "schema"),
    "list-entities": ("positive", {"text": "t", "entities": ["x"]}, "schema"),
    "null-entities": ("negative", {"text": "t", "entities": None}, "schema"),
    "blank-value": ("positive", {"text": "t", "entities": {"x": [" "]}}, "schema"),
    "list-value": ("positive", {"text": "t", "entities": {"x": [["v"]]}}, "schema"),
    "object-value": ("positive", {"text": "t", "entities": {"x": [{"v": 1}]}}, "schema"),
    "string-values": ("positive", {"text": "t", "entities": {"x": "v"}}, "schema"),
    "not-an-object": ("negative", "plain text", "schema"),
    "padded-text-stripped": ("negative", {"text": "  padded  "}, ("padded", {})),
    "repeated-values": ("positive", {"text": "t", "entities": {"x": ["b", "a", "b"]}}, ("t", {"x": {"a", "b"}})),
    "entity-on-negative": ("negative", {"text": "t", "entities": {"x": ["v"]}}, "stream-constraint"),
    "no-entity-on-positive": ("positive", {"text": "t", "entities": {}}, "stream-constraint"),
}


@pytest.mark.parametrize("stream, record, expected", RECORD_CASES.values(), ids=RECORD_CASES.keys())
def test_generated_record_edge_cases(stream, record, expected):
    cfg = GenerationConfig(n_total=1, batch_size=1, positive_fraction=1.0 if stream == "positive" else 0.0)
    client = make_client(MockTransport(replies=[json.dumps([record])]))
    examples, report = generate_pool(cfg, CHUNKS, client, model="m", seed=0)
    if isinstance(expected, str):
        assert examples == []
        assert report["rejection_reasons"] == {expected: 1}
        assert report["per_stream"][stream]["rejected"] == 1
    else:
        (example,) = examples
        assert (example.text, dict(example.entities)) == expected
        assert bool(example.entities) == (stream == "positive")
        assert report["rejected"] == 0
