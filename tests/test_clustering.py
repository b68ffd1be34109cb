"""Density clustering tests against brute-force oracles.

Oracles here recompute everything from first principles in plain
Python: core distances via full sorted distance lists, the MST via an
O(n^3) scan, and cluster structure via connected components under a
distance threshold (exactly what a single-linkage dendrogram cut
yields).
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsel.reduce.density import (
    ClusteringParams,
    _subtree_points,
    cluster,
    condense_tree,
    core_distances,
    mutual_reachability_mst,
    single_linkage,
)


def oracle_core(points, min_samples):
    n = len(points)
    out = []
    for i in range(n):
        dists = sorted(math.dist(points[i], points[j]) for j in range(n))
        out.append(dists[min(min_samples, n) - 1])
    return out


def oracle_mreach(points, min_samples):
    core = oracle_core(points, min_samples)
    n = len(points)
    return [
        [max(math.dist(points[i], points[j]), core[i], core[j]) for j in range(n)]
        for i in range(n)
    ]


def oracle_mst(points, min_samples):
    """Prim by exhaustive O(n^2) scan per step, O(n^3) total."""
    reach = oracle_mreach(points, min_samples)
    n = len(points)
    in_tree = {0}
    edges = []
    while len(in_tree) < n:
        best = None
        for i in sorted(in_tree):
            for j in range(n):
                if j in in_tree:
                    continue
                w = reach[i][j]
                if best is None or w < best[2]:
                    best = (i, j, w)
        edges.append(best)
        in_tree.add(best[1])
    return edges


def reference_prim(points, core):
    """Prim over full rows: one distance row against all n points per step,
    tree points masked to inf. Edges, order, orientation and float weights
    are the exact target for mutual_reachability_mst."""
    n = points.shape[0]
    if n == 1:
        return []
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=np.int64)
    current = 0
    in_tree[0] = True
    edges = []
    for _ in range(n - 1):
        delta = points - points[current]
        row = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        reach = np.maximum(np.maximum(row, core), core[current])
        reach[in_tree] = np.inf
        closer = reach < best_dist
        best_dist[closer] = reach[closer]
        best_from[closer] = current
        best_dist[in_tree] = np.inf
        nxt = int(np.argmin(best_dist))
        edges.append((int(best_from[nxt]), nxt, float(best_dist[nxt])))
        in_tree[nxt] = True
        current = nxt
    return edges


def components_under_threshold(points, threshold):
    """Connected components of the graph with raw-distance edges < threshold."""
    n = len(points)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], set()
        seen[start] = True
        while stack:
            cur = stack.pop()
            comp.add(cur)
            for j in range(n):
                if not seen[j] and math.dist(points[cur], points[j]) < threshold:
                    seen[j] = True
                    stack.append(j)
        comps.append(comp)
    return comps


def blob(rng, center, n, spread=0.15):
    return rng.normal(loc=center, scale=spread, size=(n, 2))


class TestCoreDistances:
    def test_hand_case_on_a_line(self):
        points = np.array([[0.0], [1.0], [3.0]])
        assert core_distances(points, 1).tolist() == [0.0, 0.0, 0.0]
        assert core_distances(points, 2).tolist() == [1.0, 1.0, 2.0]
        assert core_distances(points, 3).tolist() == [3.0, 2.0, 3.0]

    def test_min_samples_beyond_n_clamps(self):
        points = np.array([[0.0], [1.0]])
        assert core_distances(points, 10).tolist() == [1.0, 1.0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(35, 3))
        for ms in (1, 2, 5):
            assert np.allclose(core_distances(points, ms), oracle_core(points, ms), atol=1e-12)


class TestMst:
    @pytest.mark.parametrize("n,ms,seed", [(8, 1, 0), (20, 1, 1), (35, 3, 2), (50, 5, 3)])
    def test_matches_cubic_oracle(self, n, ms, seed):
        # any two MSTs of one graph share the same sorted weight multiset, so
        # weights must agree everywhere; edges must agree wherever the weight
        # is unique (ties admit several equally minimal trees)
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 4))
        mine = mutual_reachability_mst(points, core_distances(points, ms))
        theirs = oracle_mst(points, ms)
        mine_w = sorted(w for _, _, w in mine)
        theirs_w = sorted(w for _, _, w in theirs)
        assert mine_w == pytest.approx(theirs_w, abs=1e-9)

        reach = oracle_mreach(points, ms)
        for a, b, w in mine:
            assert w == pytest.approx(reach[a][b], abs=1e-9)
        graph_weights = sorted(reach[i][j] for i in range(n) for j in range(i + 1, n))
        untied = lambda w: sum(1 for x in graph_weights if abs(x - w) <= 1e-9) == 1
        mine_untied = {frozenset((a, b)) for a, b, w in mine if untied(w)}
        theirs_untied = {frozenset((a, b)) for a, b, w in theirs if untied(w)}
        assert mine_untied == theirs_untied
        if ms == 1:
            # raw metric, generic points: no ties at all
            assert len(mine_untied) == n - 1
            assert {frozenset((a, b)) for a, b, _ in mine} == {
                frozenset((a, b)) for a, b, _ in theirs
            }

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 400),
        st.integers(1, 6),
        st.sampled_from(["gaussian", "integer-grid", "rounded-blobs"]),
        st.integers(1, 5),
    )
    def test_edges_equal_full_row_prim(self, seed, n, dim, kind, ms):
        # exact equality, ties included: the choice among equal-weight trees
        # reaches the condensed tree, so the same weights are not enough
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            points = rng.normal(size=(n, dim))
        elif kind == "integer-grid":
            points = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
        else:
            centers = rng.normal(scale=3.0, size=(4, dim))
            points = np.round(centers[rng.integers(0, 4, size=n)] + rng.normal(scale=0.5, size=(n, dim)), 1)
        core = core_distances(points, ms)
        assert mutual_reachability_mst(points, core) == reference_prim(points, core)

    def test_edges_equal_full_row_prim_at_3000_points(self):
        rng = np.random.default_rng(17)
        centers = rng.normal(scale=4.0, size=(10, 8))
        points = np.round(centers[rng.integers(0, 10, size=3200)] + rng.normal(size=(3200, 8)), 1)
        core = core_distances(points, 3)
        assert mutual_reachability_mst(points, core) == reference_prim(points, core)

    @pytest.mark.parametrize("ms", [1, 3])
    @pytest.mark.parametrize(
        "kind", ["translated-1e8", "duplicated-4x", "scaled-1e-160", "scaled-1e-162", "scaled-1e100", "norms-overflow"]
    )
    def test_edges_equal_full_row_prim_where_the_filter_margin_is_thin(self, kind, ms):
        # Inputs that strain the skip filter's margin: cancellation in the Gram
        # identity (translated), exact zero distances and ties (duplicated),
        # subnormal squares (1e-160, 1e-162), huge but finite squares (1e100), and
        # squared norms that overflow while distances do not, whose estimates
        # are NaN and must take the exact path.
        rng = np.random.default_rng(23)
        blobs = np.vstack([blob(rng, center, 30) for center in ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))])
        points = {
            "translated-1e8": blobs + 1e8,
            "duplicated-4x": np.tile(blobs[:40], (4, 1)),
            "scaled-1e-160": blobs * 1e-160,
            "scaled-1e-162": blobs * 1e-162,
            "scaled-1e100": blobs * 1e100,
            "norms-overflow": blobs * 1e152 + 1e154,
        }[kind]
        core = core_distances(points, ms)
        assert mutual_reachability_mst(points, core) == reference_prim(points, core)

    def test_single_point(self):
        assert mutual_reachability_mst(np.zeros((1, 2)), np.zeros(1)) == []

    def test_edge_count(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(17, 2))
        assert len(mutual_reachability_mst(points, core_distances(points, 1))) == 16

    def test_distances_that_overflow_are_rejected(self):
        # finite points whose squared distances overflow: every reach is inf,
        # and an MST over them would join dead slots
        points = np.random.default_rng(2).normal(size=(40, 2)) * 1e200
        with pytest.raises(ValueError, match="overflow"):
            mutual_reachability_mst(points, np.zeros(40))


class TestSingleLinkage:
    def test_sizes_and_final_merge(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(12, 2))
        edges = mutual_reachability_mst(points, core_distances(points, 1))
        rows = single_linkage(edges, 12)
        assert len(rows) == 11
        assert rows[-1][3] == 12
        weights = [w for _, _, w, _ in rows]
        assert weights == sorted(weights)


class TestCondenseTree:
    def test_two_pair_toy(self):
        # Points 0,1 close; 2,3 close; pairs far apart. min size 2:
        # the root splits into two clusters of two.
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        edges = mutual_reachability_mst(points, core_distances(points, 1))
        linkage = single_linkage(edges, 4)
        starts = condense_tree(linkage, 4, 2, 0.0)
        members = sorted(sorted(_subtree_points(linkage, 4, node)) for node in starts)
        assert members == [[0, 1], [2, 3]]


class TestCluster:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_are_rejected(self, bad):
        rng = np.random.default_rng(5)
        points = np.vstack([blob(rng, (0.0, 0.0), 20), blob(rng, (10.0, 0.0), 20)])
        points[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            cluster(points, ClusteringParams(min_cluster_size=5, min_samples=1))

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan])
    def test_epsilon_must_be_a_number_at_least_zero(self, epsilon):
        with pytest.raises(ValueError, match="cluster_selection_epsilon"):
            ClusteringParams(cluster_selection_epsilon=epsilon)

    def test_fewer_points_than_min_cluster_size_all_noise(self):
        points = np.zeros((3, 2))
        labels = cluster(points, ClusteringParams(min_cluster_size=5, min_samples=1))
        assert labels.tolist() == [-1, -1, -1]

    def test_two_blobs_no_noise(self):
        rng = np.random.default_rng(42)
        points = np.vstack([blob(rng, (0.0, 0.0), 20), blob(rng, (10.0, 0.0), 20)])
        params = ClusteringParams(min_cluster_size=5, min_samples=1, cluster_selection_epsilon=2.0)
        labels = cluster(points, params)
        assert set(labels.tolist()) == {0, 1}
        # oracle: single-linkage components below the inter-blob gap
        comps = components_under_threshold(points, 5.0)
        assert sorted(len(c) for c in comps) == [20, 20]
        for comp in comps:
            assert len({labels[i] for i in comp}) == 1

    def test_two_blobs_with_outliers(self):
        rng = np.random.default_rng(7)
        points = np.vstack(
            [
                blob(rng, (0.0, 0.0), 20),
                blob(rng, (10.0, 0.0), 20),
                np.array([[60.0, 0.0], [0.0, 60.0], [-60.0, 0.0], [0.0, -60.0], [45.0, 45.0]]),
            ]
        )
        params = ClusteringParams(min_cluster_size=5, min_samples=1, cluster_selection_epsilon=2.0)
        labels = cluster(points, params)
        assert set(labels[:40].tolist()) == {0, 1}
        assert labels[40:].tolist() == [-1] * 5
        comps = components_under_threshold(points, 5.0)
        big = [c for c in comps if len(c) >= 5]
        assert sorted(len(c) for c in big) == [20, 20]
        for comp in big:
            assert len({labels[i] for i in comp}) == 1

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        points = np.vstack([blob(rng, (0.0, 0.0), 15), blob(rng, (6.0, 6.0), 15)])
        params = ClusteringParams(min_cluster_size=4, min_samples=2, cluster_selection_epsilon=1.0)
        shifted = points + np.array([123.5, -77.25])
        assert cluster(points, params).tolist() == cluster(shifted, params).tolist()

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        points = rng.normal(size=(60, 3))
        params = ClusteringParams(min_cluster_size=4, min_samples=2, cluster_selection_epsilon=0.5)
        assert cluster(points, params).tolist() == cluster(points, params).tolist()

    def test_uniform_noise_yields_no_tiny_clusters(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(-1, 1, size=(50, 2))
        labels = cluster(points, ClusteringParams(min_cluster_size=10, min_samples=3))
        for cid in set(labels.tolist()) - {-1}:
            assert (labels == cid).sum() >= 10


PARAM_GRID = [
    ClusteringParams(min_cluster_size=mcs, min_samples=ms, cluster_selection_epsilon=eps)
    for mcs in (2, 3, 5, 9)
    for ms in (1, 2, 3)
    for eps in (0.0, 0.1, 0.18, 0.5, 2.0)
]


def integer_inputs():
    """Four seeded integer-coordinate point sets per parameter set: 2-d and
    3-d grids full of duplicates and ties, and 2-d and 3-d integer blobs."""
    for seed in range(4 * len(PARAM_GRID)):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        kind, dim = seed % 4, 2 + seed % 2
        if kind < 2:
            points = rng.integers(0, 4 if dim == 2 else 3, size=(n, dim))
        else:
            centers = rng.integers(-40, 41, size=(int(rng.integers(2, 6)), dim))
            points = centers[rng.integers(0, len(centers), size=n)] + rng.integers(-2, 3, size=(n, dim))
        yield points.astype(np.float64), PARAM_GRID[seed // 4]


def test_labels_are_pinned_on_integer_inputs():
    # Every distance between integer points is the square root of an exact
    # integer, so the labels, and this digest, do not depend on the platform.
    # The digest came from the union-find labeller over per-point fall-out
    # rows, so it also pins that subtree labelling assigns the same labels.
    labels = [cluster(points, params) for points, params in integer_inputs()]
    digest = hashlib.sha256(b"".join(lab.astype("<i8").tobytes() for lab in labels)).hexdigest()
    assert digest == "33509be414bd4cb4adb941f01f9017578d059efba18792382562af9ffcd2e4eb"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(5, 45),
    st.sampled_from([2, 3, 5]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0.0, 0.18, 0.5, 2.0]),
)
def test_cluster_output_well_formed(seed, n, mcs, ms, eps):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2))
    params = ClusteringParams(min_cluster_size=mcs, min_samples=ms, cluster_selection_epsilon=eps)
    labels = cluster(points, params).tolist()
    ids = sorted(set(labels) - {-1})
    assert ids == list(range(len(ids)))
    for cid in ids:
        assert labels.count(cid) >= mcs
