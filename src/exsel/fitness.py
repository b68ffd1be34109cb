"""Fitness providers for the GA: an LLM-backed evaluator and an offline surrogate.

The LLM evaluator renders the genome's examples into a few-shot prompt,
queries every validation example at temperature 0.0, and scores the
parsed predictions with the set-based metric; fitness is micro-F1.
The surrogate needs no network: it rewards cluster coverage and a
seeded pseudo-quality per example, which is enough signal to exercise
the whole evolutionary mechanism deterministically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Sequence

from exsel.corpus import Example, LabelSchema
from exsel.evolve import Genome
from exsel.llm.client import LLMClient
from exsel.llm.transport import ChatRequest
from exsel.metrics import MetricReport, Prediction, aggregate, score_example
from exsel.parsing import parse_label_map
from exsel.reduce.pooling import ClusteredPool
from exsel.templates import EXTRACTION_INSTRUCTION_TEMPLATE


def resolve_examples(genome: Genome, pool: ClusteredPool) -> list[Example]:
    """The concrete examples a genome points at, in gene order."""
    out: list[Example] = []
    for gene in genome:
        members = pool.cluster_members[gene.cluster]
        out.append(pool.examples[members[gene.example]])
    return out


def render_fewshot_block(examples: Sequence[Example]) -> str:
    """Demonstrations in the prompt wire format, one Text/Entities pair each."""
    parts = []
    for example in examples:
        entities = {label: sorted(values) for label, values in sorted(example.entities.items())}
        parts.append(f"Text: {example.text}\nEntities: {json.dumps(entities, ensure_ascii=False)}")
    return "\n\n".join(parts)


def render_prompt(examples: Sequence[Example], query_text: str) -> str:
    block = render_fewshot_block(examples)
    query = f"Text: {query_text}\nEntities:"
    return f"{block}\n\n{query}" if block else query


@dataclass(frozen=True)
class EvaluationConfig:
    """The extraction prompt's settings: system instruction (placeholder `{labels}`) and reply budget."""

    instruction_template: str = EXTRACTION_INSTRUCTION_TEMPLATE
    max_output_tokens: int = 512

    def __post_init__(self) -> None:
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass(frozen=True)
class GenomeEvaluation:
    report: MetricReport
    n_unparseable: int

    @property
    def fitness(self) -> float:
        return self.report.micro_f1

    def as_dict(self) -> dict:
        return {"fitness": self.fitness, "n_unparseable": self.n_unparseable, "metrics": self.report.as_dict()}


def evaluate_fewshot(
    demos: Sequence[Example],
    validation: Sequence[Example],
    client: LLMClient,
    *,
    model: str,
    schema: LabelSchema | None = None,
    settings: EvaluationConfig = EvaluationConfig(),
) -> GenomeEvaluation:
    """Score a fixed demonstration set against the validation set.

    Queries run at temperature 0.0. A reply that does not parse as a
    label->values object becomes an empty prediction and is tallied,
    so malformed output lowers fitness instead of crashing the run.
    An empty `demos` is the zero-shot case.
    """
    if not validation:
        raise ValueError("validation set must be non-empty")
    if schema is None:
        schema = LabelSchema.from_examples(list(demos) + list(validation))
    system_prompt = settings.instruction_template.format(labels=", ".join(schema.labels))
    requests = [
        ChatRequest(
            model=model,
            system_prompt=system_prompt,
            user_prompt=render_prompt(demos, gold.text),
            temperature=0.0,
            max_output_tokens=settings.max_output_tokens,
        )
        for gold in validation
    ]
    replies = client.chat_many(requests)
    per_example = []
    unparseable = 0
    for gold, reply in zip(validation, replies):
        label_map = parse_label_map(reply)
        if label_map is None:
            unparseable += 1
            label_map = {}
        prediction = Prediction(
            example_id=gold.id,
            entities={label: frozenset(values) for label, values in label_map.items()},
        )
        per_example.append(score_example(gold, prediction))
    return GenomeEvaluation(report=aggregate(per_example), n_unparseable=unparseable)


def evaluate_genome_llm(
    genome: Genome,
    pool: ClusteredPool,
    validation: Sequence[Example],
    client: LLMClient,
    *,
    model: str,
    schema: LabelSchema | None = None,
    settings: EvaluationConfig = EvaluationConfig(),
) -> GenomeEvaluation:
    """Score one genome's examples with `evaluate_fewshot`; fitness is micro-F1."""
    return evaluate_fewshot(
        resolve_examples(genome, pool), validation, client, model=model, schema=schema, settings=settings
    )


def example_quality(seed: int, example_id: str) -> float:
    """Seeded hash of an example id, uniform-ish on [0, 1)."""
    digest = hashlib.blake2b(f"{seed}:{example_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def evaluate_genome_surrogate(
    genome: Genome,
    pool: ClusteredPool,
    seed: int,
    quality: Callable[[str], float] | None = None,
) -> float:
    """Deterministic offline fitness: half cluster coverage, half mean quality.

    Order-independent in the genes. `quality` is injectable for tests;
    the default hashes (seed, example id).
    """
    if quality is None:
        quality = lambda example_id: example_quality(seed, example_id)
    examples = resolve_examples(genome, pool)
    distinct = len({gene.cluster for gene in genome})
    coverage = distinct / len(genome)
    mean_quality = sum(quality(ex.id) for ex in examples) / len(examples)
    return 0.5 * coverage + 0.5 * mean_quality


def make_surrogate_provider(pool: ClusteredPool, seed: int) -> Callable[[Genome], float]:
    return lambda genome: evaluate_genome_surrogate(genome, pool, seed)
