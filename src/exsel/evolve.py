"""(mu + lambda) genetic algorithm over cluster-example genomes.

An individual is a fixed-length tuple of (cluster, example) genes; the
example field is an ordinal into that cluster's member list, so a
genome stays valid against any pool that preserves cluster structure.
Offspring are produced by exactly one of crossover, mutation, or
cloning per child. Mutation switches between inter-cluster (replace
cluster and example) and intra-cluster (replace example only) moves;
the inter-cluster probability rises and falls with the share of
clusters the current population still covers, so exploration fades as
the population concentrates.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    from exsel.reduce.pooling import ClusteredPool

_TINY = 1e-12
_RESAMPLE_ATTEMPTS = 32


class Gene(NamedTuple):
    cluster: int
    example: int


Genome = tuple[Gene, ...]


@dataclass(frozen=True)
class GAConfig:
    mu: int = 80
    lambda_: int = 180
    max_generations: int = 20
    p_cx: float = 0.30
    p_mut: float = 0.50
    tournament_size: int = 3
    p_min: float = 0.05
    p_max: float = 0.70
    warmup: int = 5
    patience: int = 5
    min_relative_improvement: float = 0.003
    genome_length: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mu < 1 or self.lambda_ < 1:
            raise ValueError("mu and lambda must be >= 1")
        if not 0.0 <= self.p_cx <= 1.0 or not 0.0 <= self.p_mut <= 1.0:
            raise ValueError("p_cx and p_mut must be probabilities")
        if self.p_cx + self.p_mut > 1.0 + _TINY:
            raise ValueError("p_cx + p_mut must not exceed 1")
        if not 0.0 <= self.p_min <= self.p_max <= 1.0:
            raise ValueError("need 0 <= p_min <= p_max <= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.genome_length < 1:
            raise ValueError("genome_length must be >= 1")
        if self.max_generations < 0 or self.warmup < 0 or self.patience < 1:
            raise ValueError("invalid stopping parameters")
        if not self.min_relative_improvement >= 0:  # NaN too
            raise ValueError("min_relative_improvement must be >= 0")


@dataclass(frozen=True)
class TraceRecord:
    generation: int
    mean_fitness: float
    best_fitness: float
    diversity: float
    p_inter: float
    evaluations: int


@dataclass(frozen=True)
class RunTrace:
    records: tuple[TraceRecord, ...]

    def __post_init__(self) -> None:
        best = None
        for record in self.records:
            if best is not None and record.best_fitness < best:
                raise ValueError("best fitness must be non-decreasing across generations")
            best = record.best_fitness

    def write_tsv(self, path: Path | str) -> None:
        """A header of TraceRecord field names, then one row per record, values as repr."""
        lines = ["\t".join(f.name for f in fields(TraceRecord))]
        lines.extend("\t".join(map(repr, astuple(r))) for r in self.records)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class EvolutionError(RuntimeError):
    """Fitness evaluation failed; carries the trace completed so far."""

    def __init__(self, message: str, trace: RunTrace) -> None:
        super().__init__(message)
        self.trace = trace


def diversity(population: Sequence[Genome], n_clusters: int) -> float:
    """Share of clusters represented by at least one gene anywhere in the population."""
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if not population:
        raise ValueError("population must be non-empty")
    represented = {gene.cluster for genome in population for gene in genome}
    return len(represented) / n_clusters


def inter_probability(d_g: float, cfg: GAConfig) -> float:
    """Affine schedule from p_min (no diversity) to p_max (full coverage)."""
    if not 0.0 <= d_g <= 1.0:
        raise ValueError(f"diversity {d_g} outside [0, 1]")
    return cfg.p_min + (cfg.p_max - cfg.p_min) * d_g


def random_genome(pool: ClusteredPool, length: int, rng: random.Random) -> Genome:
    """Draw genes cluster-first (cluster uniform, example uniform within), no duplicates."""
    sizes = pool.cluster_sizes
    total = sum(sizes)
    if total < length:
        raise ValueError(f"pool has {total} examples, cannot fill a genome of length {length}")
    genes: list[Gene] = []
    used: set[Gene] = set()
    while len(genes) < length:
        for _ in range(_RESAMPLE_ATTEMPTS):
            cluster = rng.randrange(len(sizes))
            gene = Gene(cluster, rng.randrange(sizes[cluster]))
            if gene not in used:
                break
        else:
            # rejection sampling stalled (tiny pool); draw from the complement
            free = [
                Gene(c, e) for c, size in enumerate(sizes) for e in range(size)
                if Gene(c, e) not in used
            ]
            gene = rng.choice(free)
        genes.append(gene)
        used.add(gene)
    return tuple(genes)


def mutate(genome: Genome, pool: ClusteredPool, p_inter: float, rng: random.Random) -> Genome:
    """Replace one uniformly chosen gene, inter-cluster with probability p_inter.

    Resampling retries a bounded number of times to keep the genome
    duplicate-free; if no valid replacement exists the genome is
    returned unchanged. Landing on the original gene is allowed, so an
    intra-cluster move in a one-example cluster is a no-op.
    """
    sizes = pool.cluster_sizes
    position = rng.randrange(len(genome))
    inter = rng.random() < p_inter
    others = set(genome) - {genome[position]}
    for _ in range(_RESAMPLE_ATTEMPTS):
        if inter:
            cluster = rng.randrange(len(sizes))
        else:
            cluster = genome[position].cluster
        gene = Gene(cluster, rng.randrange(sizes[cluster]))
        if gene not in others:
            return genome[:position] + (gene,) + genome[position + 1 :]
    return genome


def splice(a: Genome, b: Genome, i: int, j: int) -> tuple[Genome, Genome]:
    """Swap the segment [i, j) between two genomes; i == j is a no-op."""
    child_a = a[:i] + b[i:j] + a[j:]
    child_b = b[:i] + a[i:j] + b[j:]
    return child_a, child_b


def _repair(child: Genome, pool: ClusteredPool, rng: random.Random) -> Genome | None:
    """Resample later duplicate genes intra-cluster; None if not repairable."""
    sizes = pool.cluster_sizes
    genes = list(child)
    seen: set[Gene] = set()
    for position, gene in enumerate(genes):
        if gene not in seen:
            seen.add(gene)
            continue
        for _ in range(_RESAMPLE_ATTEMPTS):
            candidate = Gene(gene.cluster, rng.randrange(sizes[gene.cluster]))
            if candidate not in seen:
                genes[position] = candidate
                seen.add(candidate)
                break
        else:
            return None
    return tuple(genes)


def crossover(a: Genome, b: Genome, pool: ClusteredPool, rng: random.Random) -> tuple[Genome, Genome]:
    """Two-point crossover with duplicate repair; unrepairable children revert."""
    if len(a) != len(b):
        raise ValueError("parents must have equal genome length")
    if len(a) < 2:
        return a, b
    i, j = sorted(rng.sample(range(len(a) + 1), 2))
    raw_a, raw_b = splice(a, b, i, j)
    child_a = _repair(raw_a, pool, rng)
    child_b = _repair(raw_b, pool, rng)
    return (child_a if child_a is not None else a, child_b if child_b is not None else b)


def select_tournament(
    population: Sequence[Genome],
    fitnesses: Sequence[float],
    n: int,
    size: int,
    rng: random.Random,
) -> list[Genome]:
    """n winners; each the argmax of `size` draws with replacement, first draw wins ties."""
    if not population:
        raise ValueError("population must be non-empty")
    if size < 1:
        raise ValueError("tournament size must be >= 1")
    winners: list[Genome] = []
    for _ in range(n):
        best_index = rng.randrange(len(population))
        for _ in range(size - 1):
            challenger = rng.randrange(len(population))
            if fitnesses[challenger] > fitnesses[best_index]:
                best_index = challenger
        winners.append(population[best_index])
    return winners


FitnessProvider = Callable[[Genome], float]


def evolve(pool: ClusteredPool, fitness: FitnessProvider, cfg: GAConfig) -> tuple[Genome, RunTrace]:
    """Run the GA; returns the best genome ever evaluated and the full trace.

    Per generation: evaluate, record (mean, best, diversity, p_inter,
    evaluation count), then breed lambda offspring and keep the best mu
    of parents plus offspring. Fitness values are cached by genome
    content, so a genome is never evaluated twice. Early stopping
    engages after the warm-up: when the relative improvement of the
    best fitness over the value `patience` generations back stays below
    the threshold for `patience` consecutive generations, the run ends.
    """
    rng = random.Random(cfg.seed)
    if pool.n_clusters < 1:
        raise ValueError("pool has no clusters")

    cache: dict[Genome, float] = {}
    records: list[TraceRecord] = []
    pending_evaluations = 0

    def evaluate(genomes: Sequence[Genome]) -> None:
        nonlocal pending_evaluations
        for genome in genomes:
            if genome not in cache:
                try:
                    cache[genome] = float(fitness(genome))
                except Exception as exc:
                    raise EvolutionError(
                        f"fitness provider failed at generation {len(records)}: {exc}",
                        RunTrace(tuple(records)),
                    ) from exc
                pending_evaluations += 1

    population = [random_genome(pool, cfg.genome_length, rng) for _ in range(cfg.mu)]
    best_history: list[float] = []
    stall = 0
    generation = 0

    while True:
        evaluate(population)
        fits = [cache[genome] for genome in population]
        best = max(fits)
        d_g = diversity(population, pool.n_clusters)
        p_inter = inter_probability(d_g, cfg)
        records.append(
            TraceRecord(
                generation=generation,
                mean_fitness=sum(fits) / len(fits),
                best_fitness=best,
                diversity=d_g,
                p_inter=p_inter,
                evaluations=pending_evaluations,
            )
        )
        pending_evaluations = 0
        best_history.append(best)

        if generation > cfg.warmup and len(best_history) > cfg.patience:
            reference = best_history[-1 - cfg.patience]
            relative = (best - reference) / max(reference, _TINY)
            stall = stall + 1 if relative < cfg.min_relative_improvement else 0
            if stall >= cfg.patience:
                break
        if generation >= cfg.max_generations:
            break

        offspring: list[Genome] = []
        while len(offspring) < cfg.lambda_:
            roll = rng.random()
            if roll < cfg.p_cx:
                p1, p2 = select_tournament(population, fits, 2, cfg.tournament_size, rng)
                child, _ = crossover(p1, p2, pool, rng)
            elif roll < cfg.p_cx + cfg.p_mut:
                (parent,) = select_tournament(population, fits, 1, cfg.tournament_size, rng)
                child = mutate(parent, pool, p_inter, rng)
            else:
                (child,) = select_tournament(population, fits, 1, cfg.tournament_size, rng)
            offspring.append(child)
        evaluate(offspring)

        combined = population + offspring
        order = sorted(range(len(combined)), key=lambda idx: -cache[combined[idx]])
        population = [combined[idx] for idx in order[: cfg.mu]]
        generation += 1

    # insertion order breaks fitness ties in favor of the earliest evaluation
    best_genome: Genome | None = None
    best_fit = -math.inf
    for genome, fit in cache.items():
        if fit > best_fit:
            best_genome, best_fit = genome, fit
    assert best_genome is not None
    return best_genome, RunTrace(tuple(records))
