"""Tests for prompt rendering, the LLM evaluator, and the offline surrogate."""

import json

import pytest

from exsel.corpus import Example
from exsel.evolve import Gene
from exsel.fitness import (
    EvaluationConfig,
    evaluate_fewshot,
    evaluate_genome_llm,
    example_quality,
    make_surrogate_provider,
    render_fewshot_block,
    render_prompt,
    resolve_examples,
)
from exsel.llm import LLMClient, TransportConfig
from exsel.parsing import parse_label_map
from exsel.reduce.pooling import ClusteredPool
from mock_transport import MockTransport


def labeled_pool():
    examples = [
        Example(id="p0", text="Revenue was 10.", entities={"Revenue": ["10"]}),
        Example(id="p1", text="Costs were 3.", entities={"Costs": ["3"]}),
        Example(id="p2", text="Nothing here."),
        Example(id="p3", text="Profit hit 7.", entities={"Profit": ["7"]}),
    ]
    return ClusteredPool(examples=tuple(examples), assignment=(0, 0, 1, 1))


def validation_set(n=4):
    return [
        Example(id=f"v{i}", text=f"Value number {i}.", entities={"Revenue": [str(i)]})
        for i in range(n)
    ]


def make_client(transport):
    return LLMClient(transport, TransportConfig(max_in_flight=1), sleep=lambda _: None)


GENOME = (Gene(0, 0), Gene(1, 1))
LABELS = ("Revenue", "Costs", "Profit")


class TestResolveAndRender:
    def test_resolve_follows_cluster_ordinals(self):
        pool = labeled_pool()
        assert [ex.id for ex in resolve_examples(GENOME, pool)] == ["p0", "p3"]

    def test_fewshot_block_format(self):
        pool = labeled_pool()
        block = render_fewshot_block(resolve_examples(GENOME, pool))
        assert block.splitlines()[0] == "Text: Revenue was 10."
        assert '"Revenue": ["10"]' in block
        assert block.count("Text: ") == 2

    def test_prompt_ends_with_open_query(self):
        assert render_prompt("", "What now?") == "Text: What now?\nEntities:"
        assert render_prompt("Text: a\nEntities: {}", "b") == "Text: a\nEntities: {}\n\nText: b\nEntities:"

    def test_prompt_value_sets_serialized_sorted(self):
        ex = Example(id="a", text="t", entities={"X": ["b", "a"]})
        assert '"X": ["a", "b"]' in render_fewshot_block([ex])


class TestEvaluateGenomeLLM:
    def test_echoing_gold_scores_one(self):
        pool = labeled_pool()
        validation = validation_set()
        gold = {ex.text: ex for ex in validation}

        def echo(request):
            query = request.user_prompt.rsplit("Text: ", 1)[1].removesuffix("\nEntities:")
            ex = gold[query]
            return json.dumps({label: sorted(vals) for label, vals in ex.entities.items()})

        client = make_client(MockTransport(chat_fn=echo))
        result = evaluate_genome_llm(GENOME, pool, validation, client, model="m", labels=LABELS)
        assert result.fitness == 1.0
        assert result.n_unparseable == 0

    def test_unparseable_everywhere_scores_zero(self):
        pool = labeled_pool()
        validation = validation_set()
        client = make_client(MockTransport(chat_fn=lambda req: "sorry, no idea"))
        result = evaluate_genome_llm(GENOME, pool, validation, client, model="m", labels=LABELS)
        assert result.fitness == 0.0
        assert result.n_unparseable == len(validation)
        assert result.metrics["micro_recall"] == 0.0

    def test_half_correct_yields_two_thirds(self):
        # 10 single-value items, 5 echoed and 5 empty: P=1, R=0.5, F1=2/3
        pool = labeled_pool()
        validation = validation_set(10)
        replies = iter(
            [json.dumps({"Revenue": [str(i)]}) for i in range(5)] + ["{}"] * 5
        )
        client = make_client(MockTransport(chat_fn=lambda req: next(replies)))
        result = evaluate_genome_llm(GENOME, pool, validation, client, model="m", labels=LABELS)
        assert result.metrics["micro_precision"] == 1.0
        assert result.metrics["micro_recall"] == 0.5
        assert result.fitness == pytest.approx(2 / 3)

    def test_requests_are_deterministic_temperature_zero(self):
        pool = labeled_pool()
        transport = MockTransport(chat_fn=lambda req: "{}")
        client = make_client(transport)
        evaluate_genome_llm(GENOME, pool, validation_set(3), client, model="m", labels=LABELS)
        assert all(req.temperature == 0.0 for req in transport.chat_requests)
        assert all("Revenue was 10." in req.user_prompt for req in transport.chat_requests)

    def test_fenced_json_accepted(self):
        pool = labeled_pool()
        validation = validation_set(1)
        reply = '```json\n{"Revenue": ["0"]}\n```'
        client = make_client(MockTransport(chat_fn=lambda req: reply))
        result = evaluate_genome_llm(GENOME, pool, validation, client, model="m", labels=LABELS)
        assert result.fitness == 1.0

    @pytest.mark.parametrize(
        "reply",
        ["1" * 5000, '{"Revenue": ' + "1" * 5000 + "}", "[" * 100_000, '{"Revenue": ' + "[" * 100_000],
        ids=["digits", "digits-in-a-map", "depth", "depth-in-a-map"],
    )
    def test_reply_json_cannot_hold_is_unparseable(self, reply):
        # an integer past the digit limit raises ValueError, nesting past the recursion limit RecursionError
        assert parse_label_map(reply) is None
        validation = validation_set(3)
        client = make_client(MockTransport(chat_fn=lambda req: reply))
        demos = resolve_examples(GENOME, labeled_pool())
        result = evaluate_fewshot(demos, validation, client, model="m", labels=LABELS)
        assert result.n_unparseable == len(validation)
        assert result.fitness == 0.0

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            evaluate_genome_llm(GENOME, labeled_pool(), [], make_client(MockTransport()), model="m", labels=LABELS)


    def test_every_genome_is_scored_under_the_labels_passed_in(self):
        # p0 shows Revenue and p3 Profit, so the two gene orders see the labels first in opposite orders
        pool = labeled_pool()
        transport = MockTransport(chat_fn=lambda req: "{}")
        client = make_client(transport)
        labels = ("Profit", "Costs", "Revenue")
        for genome in (GENOME, GENOME[::-1]):
            evaluate_genome_llm(genome, pool, validation_set(2), client, model="m", labels=labels)
        expected = EvaluationConfig().instruction_template.format(labels="Profit, Costs, Revenue")
        assert {req.system_prompt for req in transport.chat_requests} == {expected}
        assert len(transport.chat_requests) == 4


class TestSurrogate:
    def test_distinct_clusters_and_unit_quality(self):
        pool = labeled_pool()
        fitness = make_surrogate_provider(pool, seed=0, quality=lambda _id: 1.0)
        assert fitness(GENOME) == 1.0

    def test_single_cluster_zero_quality(self):
        examples = tuple(Example(id=f"e{i}", text="t") for i in range(5))
        pool = ClusteredPool(examples=examples, assignment=(0,) * 5)
        genome = tuple(Gene(0, i) for i in range(5))
        fitness = make_surrogate_provider(pool, seed=0, quality=lambda _id: 0.0)
        assert fitness(genome) == pytest.approx(0.1)

    def test_gene_order_invariant(self):
        fitness = make_surrogate_provider(labeled_pool(), seed=9)
        genome = (Gene(0, 0), Gene(1, 1), Gene(0, 1))
        shuffled = (Gene(1, 1), Gene(0, 1), Gene(0, 0))
        assert fitness(genome) == fitness(shuffled)

    def test_seed_changes_quality(self):
        pool = labeled_pool()
        values = {make_surrogate_provider(pool, seed=s)(GENOME) for s in range(8)}
        assert len(values) > 1

    def test_quality_hash_in_unit_interval(self):
        for seed in range(3):
            for i in range(200):
                assert 0.0 <= example_quality(seed, f"id-{i}") < 1.0

    def test_default_quality_hashes_seed_and_example_id(self):
        pool = labeled_pool()
        hashed = make_surrogate_provider(pool, seed=4, quality=lambda example_id: example_quality(4, example_id))
        assert make_surrogate_provider(pool, seed=4)(GENOME) == hashed(GENOME)
