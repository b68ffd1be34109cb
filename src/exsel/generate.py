"""Generate stage: build a synthetic candidate pool through two prompt streams.

Positives must carry at least one entity, negatives none; the model is
asked for a JSON array of records per batch. Temperature jitters per
batch around the configured base. Parsing is strict with a tally: a
record that the corpus reader or its stream's constraint rejects is
counted, never silently dropped. A batch whose reply does not parse at
all is retried once at the same temperature; an authentication failure
ends generation.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from exsel.corpus import DatasetError, Example, example_from_record
from exsel.llm.client import LLMClient
from exsel.llm.transport import AuthenticationError, ChatRequest, ClientError
from exsel.parsing import parse_json_payload
from exsel.seeding import derive_rng
from exsel.templates import (
    GENERATION_SYSTEM_PROMPT,
    NEGATIVE_GENERATION_TEMPLATE,
    POSITIVE_GENERATION_TEMPLATE,
)

logger = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"

REASON_SCHEMA = "schema"
REASON_STREAM = "stream-constraint"
REASON_EXCESS = "excess"

FAILURE_PARSE = "parse-failure"
FAILURE_CLIENT = "client-error"


class GenerationError(RuntimeError):
    """No batch produced any usable example."""


@dataclass(frozen=True)
class GenerationConfig:
    n_total: int
    batch_size: int = 20
    base_temperature: float = 0.7
    temperature_jitter: float = 0.2
    positive_fraction: float = 0.5
    labels: tuple[str, ...] = ()
    positive_prompt_template: str = POSITIVE_GENERATION_TEMPLATE
    negative_prompt_template: str = NEGATIVE_GENERATION_TEMPLATE
    max_output_tokens: int = 4096

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError("n_total must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        base, jitter = self.base_temperature, self.temperature_jitter
        if not 0.0 <= base - jitter <= base + jitter <= 2.0:
            raise ValueError("base_temperature +/- temperature_jitter must lie in [0, 2]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ValueError("positive_fraction must be in [0, 1]")
        object.__setattr__(self, "labels", tuple(self.labels))


def draw_temperature(cfg: GenerationConfig, seed: int, batch_index: int) -> float:
    """Uniform in [base - jitter, base + jitter], fixed per (seed, batch index)."""
    base, jitter = cfg.base_temperature, cfg.temperature_jitter
    return derive_rng(seed, "temperature", batch_index).uniform(base - jitter, base + jitter)


def _plan_batches(cfg: GenerationConfig) -> list[tuple[str, int]]:
    """(stream, count) per batch: positive batches first, then negative."""
    n_positive = round(cfg.n_total * cfg.positive_fraction)
    n_negative = cfg.n_total - n_positive
    plan: list[tuple[str, int]] = []
    for stream, total in ((POSITIVE, n_positive), (NEGATIVE, n_negative)):
        remaining = total
        while remaining > 0:
            count = min(cfg.batch_size, remaining)
            plan.append((stream, count))
            remaining -= count
    return plan


def _generated_example(record: object, stream: str, example_id: str) -> Example | str:
    """The example a generated record makes, or why it is rejected; the corpus reader checks the example itself."""
    if not isinstance(record, dict) or set(record) - {"text", "entities"} or not isinstance(record.get("text"), str):
        return REASON_SCHEMA
    try:
        example = example_from_record({**record, "id": example_id, "text": record["text"].strip()})
    except DatasetError:
        return REASON_SCHEMA
    entities = {label: values for label, values in example.entities.items() if values}
    if bool(entities) != (stream == POSITIVE):
        return REASON_STREAM
    return replace(example, entities=entities)


def generate_pool(
    cfg: GenerationConfig,
    chunks: Sequence[str],
    client: LLMClient,
    *,
    model: str,
    seed: int = 0,
) -> tuple[list[Example], dict]:
    """Produce up to cfg.n_total synthetic examples plus a full accounting.

    The report holds `requested`, `parsed_ok`, `rejected`,
    `rejection_reasons`, `per_stream` ({stream: {parsed_ok, rejected}},
    for each stream that parsed or rejected a record), `failed_batches`
    and `batch_failure_reasons`. Chunks seed the prompts round-robin and
    are reused when fewer than the number of batches. Batches run
    sequentially in plan order, so a scripted mock client sees a
    deterministic request sequence.
    """
    if not chunks:
        raise ValueError("need at least one corpus chunk to seed generation")
    if not model:
        raise ValueError("model name must be non-empty")
    plan = _plan_batches(cfg)
    labels_text = ", ".join(cfg.labels)
    examples: list[Example] = []
    rejection_reasons: Counter[str] = Counter()
    batch_failures: Counter[str] = Counter()
    per_stream: dict[str, Counter[str]] = {}
    client_error: ClientError | None = None  # the last, the cause when every batch failed on the client

    for batch_index, (stream, count) in enumerate(plan):
        template = cfg.positive_prompt_template if stream == POSITIVE else cfg.negative_prompt_template
        chunk = chunks[batch_index % len(chunks)]
        prompt = template.format(chunk=chunk, count=count, labels=labels_text)
        request = ChatRequest(
            model=model,
            system_prompt=GENERATION_SYSTEM_PROMPT,
            user_prompt=prompt,
            temperature=draw_temperature(cfg, seed, batch_index),
            max_output_tokens=cfg.max_output_tokens,
        )
        records = None
        try:
            for attempt in (0, 1):
                payload = parse_json_payload(client.chat(request))
                if isinstance(payload, list):
                    records = payload
                    break
                logger.warning("batch %d (%s): unparseable reply (attempt %d)", batch_index, stream, attempt + 1)
        except AuthenticationError:
            raise
        except ClientError as exc:
            logger.warning("batch %d (%s) skipped: %s", batch_index, stream, exc)
            batch_failures[FAILURE_CLIENT] += 1
            client_error = exc
            continue
        if records is None:
            batch_failures[FAILURE_PARSE] += 1
            continue

        for position, record in enumerate(records):
            example_id = f"syn-{stream[:3]}-{batch_index:03d}-{position:02d}"
            outcome = REASON_EXCESS if position >= count else _generated_example(record, stream, example_id)
            tally = per_stream.setdefault(stream, Counter(parsed_ok=0, rejected=0))
            if isinstance(outcome, str):
                rejection_reasons[outcome] += 1
                tally["rejected"] += 1
            else:
                examples.append(outcome)
                tally["parsed_ok"] += 1

    failed_batches = sum(batch_failures.values())
    if failed_batches == len(plan):
        cause = client_error if batch_failures[FAILURE_CLIENT] == failed_batches else None
        raise GenerationError(f"all {len(plan)} generation batches failed: {dict(batch_failures)}") from cause
    report = {
        "requested": cfg.n_total,
        "parsed_ok": len(examples),
        "rejected": sum(rejection_reasons.values()),
        "rejection_reasons": rejection_reasons,
        "per_stream": per_stream,
        "failed_batches": failed_batches,
        "batch_failure_reasons": batch_failures,
    }
    return examples, report
