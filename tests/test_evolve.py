"""Tests for the GA operators and the evolution loop."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsel.corpus import Example
from exsel.evolve import (
    EvolutionError,
    GAConfig,
    Gene,
    RunTrace,
    TraceRecord,
    crossover,
    diversity,
    evolve,
    inter_probability,
    mutate,
    random_genome,
    select_tournament,
    splice,
)
from exsel.reduce.pooling import ClusteredPool


def grid_pool(n_clusters, per_cluster):
    examples = []
    assignment = []
    for c in range(n_clusters):
        for e in range(per_cluster):
            examples.append(Example(id=f"c{c}e{e}", text=f"text {c} {e}"))
            assignment.append(c)
    return ClusteredPool(examples=tuple(examples), assignment=tuple(assignment))


def genome_of(pairs):
    return tuple(Gene(c, e) for c, e in pairs)


SMALL_CFG = GAConfig(mu=8, lambda_=16, max_generations=10, genome_length=3, seed=5)


class TestDiversity:
    def test_full_coverage(self):
        population = [genome_of([(c, 0) for c in range(4)])]
        assert diversity(population, 4) == 1.0

    def test_single_cluster(self):
        population = [genome_of([(0, 0), (0, 1), (0, 2)])] * 3
        assert diversity(population, 10) == pytest.approx(0.1)

    def test_three_of_ten(self):
        population = [
            genome_of([(0, 0), (1, 0)]),
            genome_of([(1, 1), (2, 0)]),
            genome_of([(2, 1), (0, 1)]),
        ]
        assert diversity(population, 10) == pytest.approx(0.3)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            diversity([], 3)


class TestInterProbability:
    CFG = GAConfig(p_min=0.05, p_max=0.70)

    def test_endpoints_and_midpoint(self):
        assert inter_probability(0.0, self.CFG) == pytest.approx(0.05, abs=1e-12)
        assert inter_probability(0.4, self.CFG) == pytest.approx(0.31, abs=1e-12)
        assert inter_probability(1.0, self.CFG) == pytest.approx(0.70, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            inter_probability(1.5, self.CFG)

    @settings(max_examples=100)
    @given(st.floats(0.0, 1.0))
    def test_monotone_and_bounded(self, d):
        value = inter_probability(d, self.CFG)
        assert 0.05 <= value <= 0.70


class TestRandomGenome:
    def test_valid_and_duplicate_free(self):
        pool = grid_pool(4, 3)
        rng = random.Random(0)
        for _ in range(200):
            genome = random_genome(pool, 5, rng)
            assert len(genome) == 5
            assert len(set(genome)) == 5
            for gene in genome:
                assert 0 <= gene.cluster < 4
                assert 0 <= gene.example < 3

    def test_tiny_pool_exact_fill(self):
        pool = grid_pool(2, 1)
        genome = random_genome(pool, 2, random.Random(3))
        assert set(genome) == {Gene(0, 0), Gene(1, 0)}

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_genome(grid_pool(1, 2), 3, random.Random(0))


class TestMutate:
    def test_changes_at_most_one_position(self):
        pool = grid_pool(5, 4)
        rng = random.Random(1)
        genome = random_genome(pool, 4, rng)
        for _ in range(300):
            mutant = mutate(genome, pool, 0.5, rng)
            differing = [i for i in range(4) if mutant[i] != genome[i]]
            assert len(differing) <= 1
            assert len(set(mutant)) == len(mutant)

    def test_intra_preserves_cluster_multiset(self):
        pool = grid_pool(5, 4)
        rng = random.Random(2)
        genome = random_genome(pool, 4, rng)
        for _ in range(300):
            mutant = mutate(genome, pool, 0.0, rng)
            assert sorted(g.cluster for g in mutant) == sorted(g.cluster for g in genome)

    def test_intra_on_singleton_cluster_is_noop(self):
        pool = grid_pool(3, 1)
        genome = genome_of([(0, 0), (1, 0), (2, 0)])
        for seed in range(50):
            assert mutate(genome, pool, 0.0, random.Random(seed)) == genome

    def test_inter_cluster_frequencies_uniform(self):
        # forced inter: replacement clusters should be uniform over all 4
        pool = grid_pool(4, 50)
        rng = random.Random(7)
        genome = genome_of([(0, 0), (1, 0), (2, 0), (3, 0)])
        counts = [0, 0, 0, 0]
        trials = 10_000
        observed = 0
        for _ in range(trials):
            mutant = mutate(genome, pool, 1.0, rng)
            changed = [i for i in range(4) if mutant[i] != genome[i]]
            if not changed:
                continue  # resample landed on the original gene (allowed no-op)
            counts[mutant[changed[0]].cluster] += 1
            observed += 1
        expected = observed / 4
        sigma = math.sqrt(observed * 0.25 * 0.75)
        for count in counts:
            assert abs(count - expected) < 3 * sigma

    def test_unrepairable_returns_unchanged(self):
        # one cluster of two examples; genome uses both; intra has no free slot
        pool = grid_pool(1, 2)
        genome = genome_of([(0, 0), (0, 1)])
        assert mutate(genome, pool, 0.0, random.Random(4)) == genome


class TestCrossover:
    def test_hand_case_cuts_1_3(self):
        a = genome_of([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)])
        b = genome_of([(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)])
        child_a, child_b = splice(a, b, 1, 3)
        assert child_a == genome_of([(0, 0), (1, 1), (1, 2), (0, 3), (0, 4)])
        assert child_b == genome_of([(1, 0), (0, 1), (0, 2), (1, 3), (1, 4)])

    def test_boundary_cuts_swap_parents(self):
        a = genome_of([(0, 0), (0, 1)])
        b = genome_of([(1, 0), (1, 1)])
        assert splice(a, b, 0, 2) == (b, a)

    def test_equal_cuts_are_identity(self):
        a = genome_of([(0, 0), (0, 1)])
        b = genome_of([(1, 0), (1, 1)])
        assert splice(a, b, 1, 1) == (a, b)

    def test_children_always_valid(self):
        pool = grid_pool(3, 4)
        rng = random.Random(9)
        for _ in range(500):
            a = random_genome(pool, 5, rng)
            b = random_genome(pool, 5, rng)
            for child in crossover(a, b, pool, rng):
                assert len(child) == 5
                assert len(set(child)) == 5
                for gene in child:
                    assert gene.example < 4

    def test_unrepairable_child_reverts_to_parent(self):
        pool = grid_pool(1, 2)
        a = genome_of([(0, 0), (0, 1)])
        b = genome_of([(0, 1), (0, 0)])
        for seed in range(30):
            child_a, child_b = crossover(a, b, pool, random.Random(seed))
            assert child_a in (a, b)
            assert child_b in (a, b)


class TestTournament:
    def test_size_one_is_uniform(self):
        population = [genome_of([(i, 0)]) for i in range(3)]
        fits = [0.1, 0.9, 0.5]
        rng = random.Random(0)
        counts = {0: 0, 1: 0, 2: 0}
        for winner in select_tournament(population, fits, 9000, 1, rng):
            counts[winner[0].cluster] += 1
        for count in counts.values():
            assert abs(count - 3000) < 3 * math.sqrt(9000 * (1 / 3) * (2 / 3))

    def test_best_always_wins_when_sampled(self):
        population = [genome_of([(i, 0)]) for i in range(3)]
        fits = [0.2, 0.9, 0.5]
        rng = random.Random(1)
        # size=3 with replacement: track that cluster-1 never loses a
        # tournament it appears in, via exhaustive re-simulation
        for _ in range(2000):
            state = rng.getstate()
            draws = [rng.randrange(3) for _ in range(3)]
            rng.setstate(state)
            (winner,) = select_tournament(population, fits, 1, 3, rng)
            if 1 in draws:
                assert winner[0].cluster == 1

    def test_two_way_selection_frequency(self):
        population = [genome_of([(0, 0)]), genome_of([(1, 0)])]
        fits = [0.9, 0.1]
        rng = random.Random(2)
        wins = sum(
            1 for winner in select_tournament(population, fits, 10_000, 2, rng)
            if winner[0].cluster == 0
        )
        # P(select best) = 1 - P(both draws are the weaker) = 0.75
        assert abs(wins / 10_000 - 0.75) < 0.02

    def test_ties_go_to_first_sampled(self):
        population = [genome_of([(0, 0)]), genome_of([(1, 0)])]
        fits = [0.5, 0.5]

        class ScriptedRng:
            def __init__(self, draws):
                self.draws = list(draws)

            def randrange(self, _n):
                return self.draws.pop(0)

        (winner,) = select_tournament(population, fits, 1, 2, ScriptedRng([1, 0]))
        assert winner[0].cluster == 1


def coverage_fitness(pool):
    return lambda genome: len({g.cluster for g in genome}) / len(genome)


class TestEvolve:
    def test_zero_generations_returns_initial_best(self):
        pool = grid_pool(6, 5)
        cfg = GAConfig(mu=10, lambda_=20, max_generations=0, genome_length=4, seed=3)
        best, trace = evolve(pool, coverage_fitness(pool), cfg)
        assert len(trace.records) == 1
        assert trace.records[0].generation == 0
        assert trace.records[0].evaluations == 10
        assert trace.records[0].best_fitness == max(
            trace.records[0].best_fitness, trace.records[0].mean_fitness
        )

    def test_constant_fitness_stops_at_generation_ten(self):
        pool = grid_pool(6, 5)
        cfg = GAConfig(
            mu=10, lambda_=20, max_generations=100, genome_length=4,
            warmup=5, patience=5, min_relative_improvement=0.003, seed=11,
        )
        _, trace = evolve(pool, lambda genome: 0.5, cfg)
        assert trace.records[-1].generation == 10
        assert len(trace.records) == 11

    def test_coverage_fitness_reaches_optimum(self):
        pool = grid_pool(8, 6)
        cfg = GAConfig(mu=20, lambda_=40, max_generations=20, genome_length=5, seed=2)
        best, trace = evolve(pool, coverage_fitness(pool), cfg)
        assert len({g.cluster for g in best}) == 5
        assert trace.records[-1].best_fitness == 1.0

    def test_best_fitness_non_decreasing(self):
        pool = grid_pool(7, 4)
        for seed in range(10):
            cfg = GAConfig(mu=8, lambda_=16, max_generations=12, genome_length=4, seed=seed)
            _, trace = evolve(pool, coverage_fitness(pool), cfg)
            bests = [r.best_fitness for r in trace.records]
            assert bests == sorted(bests)

    def test_trace_p_inter_matches_formula_exactly(self):
        pool = grid_pool(9, 5)
        cfg = GAConfig(mu=12, lambda_=24, max_generations=15, genome_length=5, seed=7)
        _, trace = evolve(pool, coverage_fitness(pool), cfg)
        for record in trace.records:
            assert record.p_inter == inter_probability(record.diversity, cfg)

    def test_deterministic_across_runs(self):
        pool = grid_pool(6, 6)
        cfg = GAConfig(mu=10, lambda_=20, max_generations=10, genome_length=4, seed=13)
        best_a, trace_a = evolve(pool, coverage_fitness(pool), cfg)
        best_b, trace_b = evolve(pool, coverage_fitness(pool), cfg)
        assert best_a == best_b
        assert trace_a == trace_b

    def test_different_seeds_differ(self):
        pool = grid_pool(6, 6)
        traces = []
        for seed in (0, 1):
            cfg = GAConfig(mu=10, lambda_=20, max_generations=5, genome_length=4, seed=seed)
            traces.append(evolve(pool, coverage_fitness(pool), cfg)[1])
        assert traces[0] != traces[1]

    def test_identical_genomes_never_reevaluated(self):
        pool = grid_pool(5, 5)
        seen = set()

        def counting_fitness(genome):
            assert genome not in seen
            seen.add(genome)
            return len({g.cluster for g in genome}) / len(genome)

        cfg = GAConfig(mu=10, lambda_=20, max_generations=8, genome_length=4, seed=1)
        _, trace = evolve(pool, counting_fitness, cfg)
        assert sum(r.evaluations for r in trace.records) == len(seen)

    def test_fitness_failure_carries_partial_trace(self):
        pool = grid_pool(5, 5)
        calls = {"n": 0}

        def flaky(genome):
            calls["n"] += 1
            if calls["n"] > 25:
                raise RuntimeError("service down")
            return 0.5

        cfg = GAConfig(mu=10, lambda_=20, max_generations=10, genome_length=4, seed=1)
        with pytest.raises(EvolutionError) as info:
            evolve(pool, flaky, cfg)
        assert len(info.value.trace.records) >= 1

    def test_evaluation_counts_sum_to_unique_genomes(self):
        pool = grid_pool(6, 5)
        cfg = GAConfig(mu=10, lambda_=20, max_generations=6, genome_length=4, seed=9)
        unique = set()
        _, trace = evolve(
            pool, lambda g: (unique.add(g), len({x.cluster for x in g}) / len(g))[1], cfg
        )
        assert trace.records[0].evaluations == 10
        assert sum(r.evaluations for r in trace.records) == len(unique)


class TestRunTrace:
    def test_rejects_decreasing_best(self):
        rec = lambda g, best: TraceRecord(g, 0.0, best, 1.0, 0.7, 1)
        with pytest.raises(ValueError):
            RunTrace((rec(0, 0.9), rec(1, 0.8)))


class TestGAConfig:
    def test_rejects_probability_overload(self):
        with pytest.raises(ValueError):
            GAConfig(p_cx=0.6, p_mut=0.6)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            GAConfig(p_min=0.8, p_max=0.2)

    def test_full_scale_defaults_valid(self):
        cfg = GAConfig()
        assert (cfg.mu, cfg.lambda_, cfg.max_generations) == (80, 180, 20)
        assert (cfg.p_cx, cfg.p_mut, cfg.tournament_size) == (0.30, 0.50, 3)
        assert (cfg.p_min, cfg.p_max) == (0.05, 0.70)
        assert (cfg.warmup, cfg.patience, cfg.min_relative_improvement) == (5, 5, 0.003)
        assert cfg.genome_length == 5