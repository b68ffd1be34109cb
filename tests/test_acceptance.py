"""Acceptance suite: one check per shipped behavior guarantee, one PASS/FAIL line each.

Each test prints its verdict through capsys.disabled() so the line is
visible in live pytest output, then asserts. Runtime ceilings are part
of the guarantees and are asserted alongside the functional claims.
"""

import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import make_topic_examples, surrogate_config_payload, write_yaml_config
from exsel import cli
from exsel.corpus import Example, save_examples
from exsel.evolve import GAConfig, evolve, inter_probability
from exsel.fitness import make_surrogate_provider
from exsel.metrics import ExtractionCounts, aggregate, score_example
from exsel.pipeline import baseline_random, load_config
from exsel.reduce.density import ClusteringParams, cluster, core_distances, mutual_reachability_mst
from exsel.reduce.pooling import ClusteredPool, build_pool


def announce(capsys, index: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] acceptance {index}: {description}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def topic_clustered_pool(n_topics: int = 12, per_topic: int = 15) -> ClusteredPool:
    examples = make_topic_examples(n_topics, per_topic, seed=3)
    assignment = [t for t in range(n_topics) for _ in range(per_topic)]
    return ClusteredPool(examples=tuple(examples), assignment=tuple(assignment))


def test_adaptive_mutation_formula_fixed_points(capsys):
    start = time.perf_counter()
    cfg = GAConfig()  # p_min=0.05, p_max=0.70
    expected = {0.0: 0.05, 0.4: 0.31, 1.0: 0.70}
    worst = max(abs(inter_probability(d, cfg) - want) for d, want in expected.items())
    elapsed = time.perf_counter() - start
    announce(
        capsys, 1, "adaptive mutation formula hits 0.05/0.31/0.70 at diversity 0/0.4/1.0",
        worst <= 1e-12 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.3f}s",
    )


def test_mutation_probability_decays_and_tracks_diversity(capsys):
    start = time.perf_counter()
    pool = topic_clustered_pool(12, 15)
    cfg = GAConfig(
        mu=20, lambda_=40, max_generations=15, genome_length=5,
        min_relative_improvement=0.0, seed=20260814,
    )
    fitness = make_surrogate_provider(pool, seed=99)
    _, trace = evolve(pool, fitness, cfg)
    records = trace.records
    formula_exact = all(r.p_inter == inter_probability(r.diversity, cfg) for r in records)
    decays = records[-1].p_inter < records[0].p_inter
    elapsed = time.perf_counter() - start
    announce(
        capsys, 2, "inter-cluster mutation probability decays and equals the formula each generation",
        formula_exact and decays and elapsed < 10.0,
        f"p_inter {records[0].p_inter:.3f} -> {records[-1].p_inter:.3f} over {len(records)} records, {elapsed:.2f}s",
    )


def test_best_fitness_never_decreases_across_twenty_runs(capsys):
    start = time.perf_counter()
    pool = topic_clustered_pool(12, 15)
    violations = 0
    for seed in range(20):
        cfg = GAConfig(
            mu=20, lambda_=40, max_generations=15, genome_length=5,
            min_relative_improvement=0.0, seed=seed,
        )
        _, trace = evolve(pool, make_surrogate_provider(pool, seed=99), cfg)
        best = [r.best_fitness for r in trace.records]
        violations += sum(1 for a, b in zip(best, best[1:]) if b < a)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 3, "best fitness is non-decreasing in every generation of 20 seeded runs",
        violations == 0 and elapsed < 60.0,
        f"{violations} violations, {elapsed:.2f}s",
    )


def test_search_beats_random_draws_in_most_seeds(capsys):
    start = time.perf_counter()
    pool = topic_clustered_pool(12, 15)
    fitness = make_surrogate_provider(pool, seed=99)
    wins = 0
    for seed in range(20):
        cfg = GAConfig(mu=20, lambda_=40, max_generations=15, genome_length=5, seed=seed)
        _, trace = evolve(pool, fitness, cfg)
        baseline = baseline_random(pool, shots=5, n_draws=3, fitness=fitness, seed=seed)
        if trace.records[-1].best_fitness > baseline["mean"]:
            wins += 1
    elapsed = time.perf_counter() - start
    announce(
        capsys, 4, "evolved fitness beats the mean of 3 random draws in >= 18 of 20 seeds",
        wins >= 18 and elapsed < 120.0,
        f"{wins}/20 wins, {elapsed:.2f}s",
    )


def _oracle_metrics(instances):
    """Independent counting route: pooled counts, then harmonic-mean F1."""
    per_label: dict[str, list[int]] = {}
    for gold, pred in instances:
        for label in set(gold) | set(pred):
            g = gold.get(label, set())
            p = pred.get(label, set())
            counts = per_label.setdefault(label, [0, 0, 0])
            counts[0] += len(g & p)
            counts[1] += len(p - g)
            counts[2] += len(g - p)

    def prf(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1

    tp = sum(c[0] for c in per_label.values())
    fp = sum(c[1] for c in per_label.values())
    fn = sum(c[2] for c in per_label.values())
    micro_p, micro_r, micro_f1 = prf(tp, fp, fn)
    observed = [prf(*c)[2] for c in per_label.values() if sum(c) > 0]
    macro_f1 = sum(observed) / len(observed) if observed else 0.0
    return micro_p, micro_r, micro_f1, macro_f1


def test_metric_matches_counting_oracle_and_worked_case(capsys):
    start = time.perf_counter()
    rng = random.Random(20260814)
    labels = ["alpha", "beta", "gamma"]
    worst = 0.0
    for trial in range(1000):
        n_examples = rng.randrange(1, 5)
        instances = []
        per_example = []
        for i in range(n_examples):
            gold = {}
            pred = {}
            for label in labels:
                if rng.random() < 0.6:
                    gold[label] = {f"v{rng.randrange(6)}" for _ in range(rng.randrange(1, 4))}
                if rng.random() < 0.6:
                    pred[label] = {f"v{rng.randrange(6)}" for _ in range(rng.randrange(1, 4))}
            instances.append((gold, pred))
            example = Example(id=f"x{i}", text="t", entities=gold, provenance="human")
            per_example.append(score_example(example, pred))
        report = aggregate(per_example)
        oracle = _oracle_metrics(instances)
        mine = (report["micro_precision"], report["micro_recall"], report["micro_f1"], report["macro_f1"])
        worst = max(worst, max(abs(a - b) for a, b in zip(mine, oracle)))

    gold = Example(id="w", text="t", entities={"alpha": ["a", "b", "c"]}, provenance="human")
    worked = aggregate([score_example(gold, {"alpha": ["a", "z"]})])
    worked_ok = worked["micro_f1"] == 0.4 and ExtractionCounts(tp=1, fp=1, fn=2).f1 == 0.4
    elapsed = time.perf_counter() - start
    announce(
        capsys, 5, "set metric matches the counting oracle on 1000 instances; tp=1,fp=1,fn=2 gives 0.4",
        worst <= 1e-12 and worked_ok and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def _oracle_reach(points, min_samples):
    n = len(points)
    dist = [[math.dist(points[a], points[b]) for b in range(n)] for a in range(n)]
    core = [sorted(dist[a])[min(min_samples, n) - 1] for a in range(n)]
    return [[max(dist[a][b], core[a], core[b]) for b in range(n)] for a in range(n)]


def _oracle_mst(reach):
    n = len(reach)
    in_tree = [False] * n
    in_tree[0] = True
    edges = []
    for _ in range(n - 1):
        best = None
        for a in range(n):
            if not in_tree[a]:
                continue
            for b in range(n):
                if in_tree[b]:
                    continue
                if best is None or reach[a][b] < best[2]:
                    best = (a, b, reach[a][b])
        in_tree[best[1]] = True
        edges.append(best)
    return edges


def _mst_agrees(mine, oracle_edges, reach) -> bool:
    mine_w = sorted(w for _, _, w in mine)
    oracle_w = sorted(w for _, _, w in oracle_edges)
    if len(mine_w) != len(oracle_w):
        return False
    if any(abs(a - b) > 1e-9 for a, b in zip(mine_w, oracle_w)):
        return False
    if any(abs(w - reach[a][b]) > 1e-9 for a, b, w in mine):
        return False
    # where a weight is globally unique, the edge itself must coincide
    n = len(reach)
    weight_counts = Counter(round(reach[a][b], 9) for a in range(n) for b in range(a + 1, n))
    oracle_set = {frozenset((a, b)) for a, b, _ in oracle_edges}
    return all(
        weight_counts[round(w, 9)] > 1 or frozenset((a, b)) in oracle_set
        for a, b, w in mine
    )


def test_clustering_recovers_blobs_and_mst_matches_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    blob_a = rng.normal((0.0, 0.0), 0.15, size=(20, 2))
    blob_b = rng.normal((10.0, 0.0), 0.15, size=(20, 2))
    outliers = np.array([(60.0, 60.0), (-70.0, 55.0), (65.0, -75.0), (-80.0, -60.0), (90.0, 5.0)])
    points = np.vstack([blob_a, blob_b, outliers])
    labels = cluster(points, ClusteringParams(min_cluster_size=5, min_samples=1, cluster_selection_epsilon=2.0))
    found = sorted(set(labels.tolist()) - {-1})
    blobs_ok = (
        found == [0, 1]
        and all(label != -1 for label in labels[:40])
        and len(set(labels[:20].tolist())) == 1
        and len(set(labels[20:40].tolist())) == 1
        and all(label == -1 for label in labels[40:])
    )

    mst_ok = True
    for n, seed, min_samples in [(5, 0, 1), (17, 1, 3), (33, 2, 5), (50, 3, 1), (50, 4, 3)]:
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 3))
        core = core_distances(pts, min_samples)
        mine = mutual_reachability_mst(pts, core)
        rows = [list(map(float, row)) for row in pts]
        reach = _oracle_reach(rows, min_samples)
        mst_ok = mst_ok and _mst_agrees(mine, _oracle_mst(reach), reach)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 6, "two blobs recovered as 2 clusters with 5 outliers as noise; MST matches brute force",
        blobs_ok and mst_ok and elapsed < 30.0,
        f"clusters {found}, noise {int((labels == -1).sum())}, {elapsed:.2f}s",
    )


def _contributions(sizes, k):
    examples = []
    assignment = []
    uid = 0
    for cid, size in enumerate(sizes):
        for _ in range(size):
            examples.append(Example(id=f"p{uid}", text=f"t{uid}", entities={}, provenance="human"))
            assignment.append(cid)
            uid += 1
    pool = ClusteredPool(examples=tuple(examples), assignment=tuple(assignment))
    counts = Counter(pool.assignment[i] for i in build_pool(pool, k))
    return [counts.get(cid, 0) for cid in range(len(sizes))]


def test_round_robin_fills_clusters_evenly(capsys):
    start = time.perf_counter()
    hand_ok = _contributions([4, 3, 2], 8) == [3, 3, 2]

    rng = random.Random(11)
    property_ok = True
    for _ in range(200):
        n_clusters = rng.randrange(1, 13)
        sizes = [rng.randrange(1, 25) for _ in range(n_clusters)]
        # keep every cluster large enough that none exhausts early
        k = rng.randrange(1, n_clusters * min(sizes) + 1)
        low = k // n_clusters
        high = low + (1 if k % n_clusters else 0)
        got = _contributions(sizes, k)
        property_ok = property_ok and all(low <= c <= high for c in got) and sum(got) == k
    elapsed = time.perf_counter() - start
    announce(
        capsys, 7, "round-robin pool fill gives floor/ceil(k/C) per cluster; [4,3,2],k=8 -> (3,3,2)",
        hand_ok and property_ok and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )


def test_constant_fitness_stops_at_generation_ten(capsys):
    start = time.perf_counter()
    pool = topic_clustered_pool(4, 6)
    cfg = GAConfig(
        mu=8, lambda_=16, max_generations=50, genome_length=3,
        warmup=5, patience=5, min_relative_improvement=0.003, seed=2,
    )
    _, trace = evolve(pool, lambda genome: 0.5, cfg)
    last = trace.records[-1].generation
    elapsed = time.perf_counter() - start
    announce(
        capsys, 8, "constant fitness with warmup=5, patience=5 stops at generation 10 exactly",
        last == 10 and len(trace.records) == 11 and elapsed < 30.0,
        f"stopped at generation {last}, {elapsed:.2f}s",
    )


def test_repeat_runs_are_byte_identical(capsys, tmp_path, small_pool_path):
    start = time.perf_counter()
    config_a = write_yaml_config(
        tmp_path / "a.yaml", surrogate_config_payload(small_pool_path, tmp_path / "run_a")
    )
    config_b = write_yaml_config(
        tmp_path / "b.yaml", surrogate_config_payload(small_pool_path, tmp_path / "run_b")
    )
    assert cli.main(["run-all", "--config", str(config_a)]) == cli.EXIT_OK
    assert cli.main(["run-all", "--config", str(config_b)]) == cli.EXIT_OK
    identical = True
    compared = 0
    for pattern in ["trace_k*.tsv", "best_genome_k*.json"]:
        for path_a in sorted((tmp_path / "run_a" / "select").glob(pattern)):
            path_b = tmp_path / "run_b" / "select" / path_a.name
            compared += 1
            identical = identical and path_b.exists() and path_a.read_bytes() == path_b.read_bytes()
    elapsed = time.perf_counter() - start
    announce(
        capsys, 9, "same config and seed run twice yields byte-identical trace and best-genome files",
        identical and compared == 4 and elapsed < 120.0,
        f"{compared} files compared, {elapsed:.2f}s",
    )


@pytest.fixture(scope="session")
def big_pool_path(tmp_path_factory):
    """6,720 examples in 12 topics for the large two-pool protocol."""
    path = tmp_path_factory.mktemp("bigpool") / "pool.jsonl"
    save_examples(make_topic_examples(12, 560, seed=7), path)
    return path


def test_two_pool_sizes_run_to_completion_on_large_fixture(capsys, tmp_path, big_pool_path):
    start = time.perf_counter()
    payload = surrogate_config_payload(
        big_pool_path,
        tmp_path / "run",
        corpus={"pool_path": str(big_pool_path), "n_validation": 100},
        # epsilon matches the fixture's intra-topic merge scale
        clustering={"min_cluster_size": 9, "min_samples": 1, "cluster_selection_epsilon": 0.4},
        pool_sizes=[500, 5000],
        ga={
            "mu": 80, "lambda": 180, "max_generations": 20, "genome_length": 5,
            "warmup": 5, "patience": 5,
        },
    )
    config = write_yaml_config(tmp_path / "config.yaml", payload)
    assert cli.main(["run-all", "--config", str(config)]) == cli.EXIT_OK
    root = tmp_path / "run"
    rows = (root / "reduce" / "assignment.tsv").read_text().splitlines()[1:]
    non_noise = sum(1 for row in rows if not row.endswith("\t-1"))
    trace_500 = root / "select" / "trace_k500.tsv"
    trace_5000 = root / "select" / "trace_k5000.tsv"
    traces_ok = (
        trace_500.exists()
        and trace_5000.exists()
        and trace_500.read_bytes() != trace_5000.read_bytes()
        and (root / "select" / "best_genome_k500.json").exists()
        and (root / "select" / "best_genome_k5000.json").exists()
    )
    elapsed = time.perf_counter() - start
    announce(
        capsys, 10, "k=500 and k=5000 pools yield two complete, separate search runs on 6k+ examples",
        non_noise >= 6000 and traces_ok and elapsed < 600.0,
        f"{non_noise} non-noise examples, {elapsed:.1f}s",
    )
