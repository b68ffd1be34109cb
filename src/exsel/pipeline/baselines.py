"""Reference points the evolved genome must beat: random draws and zero-shot."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from exsel.corpus import Example, LabelSchema
from exsel.evolve import Genome, random_genome
from exsel.fitness import GenomeEvaluation, evaluate_fewshot
from exsel.llm.client import LLMClient
from exsel.reduce.pooling import ClusteredPool
from exsel.seeding import derive_rng
from exsel.templates import EXTRACTION_INSTRUCTION_TEMPLATE


@dataclass(frozen=True)
class BaselineSummary:
    mean: float
    std: float
    fitnesses: tuple[float, ...]

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "fitnesses": list(self.fitnesses)}


def baseline_random(
    pool: ClusteredPool,
    shots: int,
    n_draws: int,
    fitness: Callable[[Genome], float],
    seed: int,
) -> BaselineSummary:
    """Mean and sample std of fitness over independently drawn genomes.

    Draws use the same cluster-then-example sampling as GA initialization.
    Sample std uses ddof=1; a single draw reports std 0.0.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    fitnesses = []
    for draw in range(n_draws):
        rng = derive_rng(seed, "baseline-random", draw)
        genome = random_genome(pool, shots, rng)
        fitnesses.append(fitness(genome))
    mean = sum(fitnesses) / n_draws
    if n_draws == 1:
        std = 0.0
    else:
        std = math.sqrt(sum((f - mean) ** 2 for f in fitnesses) / (n_draws - 1))
    return BaselineSummary(mean=mean, std=std, fitnesses=tuple(fitnesses))


def baseline_zeroshot(
    validation: Sequence[Example],
    client: LLMClient,
    *,
    model: str,
    schema: LabelSchema | None = None,
    instruction_template: str = EXTRACTION_INSTRUCTION_TEMPLATE,
    max_output_tokens: int = 512,
) -> GenomeEvaluation:
    """Instruction-only extraction: the few-shot evaluator with no demonstrations."""
    return evaluate_fewshot(
        (),
        validation,
        client,
        model=model,
        schema=schema,
        instruction_template=instruction_template,
        max_output_tokens=max_output_tokens,
    )
