"""Random-draw reference point the evolved genome must beat.

The zero-shot reference is `evaluate_fewshot` with no demonstrations.
"""

from __future__ import annotations

import math
from typing import Callable

from exsel.evolve import Genome, random_genome
from exsel.reduce.pooling import ClusteredPool
from exsel.seeding import derive_rng


def baseline_random(
    pool: ClusteredPool,
    shots: int,
    n_draws: int,
    fitness: Callable[[Genome], float],
    seed: int,
) -> dict:
    """Mean and sample std of fitness over independently drawn genomes: {"mean", "std", "fitnesses"}.

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
    return {"mean": mean, "std": std, "fitnesses": fitnesses}

