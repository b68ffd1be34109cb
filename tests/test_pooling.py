"""Tests for noise filtering and round-robin pool construction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsel.corpus import Example
from exsel.reduce.pooling import ClusteredPool, build_pool, filter_noise


def make_examples(n):
    return [Example(id=f"e{i}", text=f"text {i}") for i in range(n)]


def pool_with_sizes(sizes):
    """Clusters laid out contiguously: cluster c owns the next sizes[c] examples."""
    assignment = [cid for cid, size in enumerate(sizes) for _ in range(size)]
    return ClusteredPool(examples=tuple(make_examples(len(assignment))), assignment=tuple(assignment))


class TestClusteredPool:
    def test_members_ordered_ascending(self):
        examples = make_examples(6)
        pool = ClusteredPool(examples=tuple(examples), assignment=(1, 0, 1, -1, 0, 1))
        assert pool.cluster_members == ((1, 4), (0, 2, 5))
        assert pool.n_clusters == 2
        assert pool.cluster_sizes == (2, 3)

    def test_rejects_sparse_ids(self):
        with pytest.raises(ValueError, match="dense"):
            ClusteredPool(examples=tuple(make_examples(2)), assignment=(0, 2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ClusteredPool(examples=tuple(make_examples(2)), assignment=(0,))


class TestFilterNoise:
    def test_identity_when_no_noise(self):
        examples = make_examples(4)
        pool = filter_noise(examples, [0, 1, 0, 1])
        assert pool.examples == tuple(examples)
        assert pool.assignment == (0, 1, 0, 1)

    def test_all_noise(self):
        pool = filter_noise(make_examples(3), [-1, -1, -1])
        assert pool.examples == ()
        assert pool.n_clusters == 0

    def test_hand_case_ordering_and_removal(self):
        # cluster 0 holds original indices {5, 2}, index 1 is noise
        examples = make_examples(6)
        assignment = [-1, -1, 0, -1, -1, 0]
        pool = filter_noise(examples, assignment)
        assert [ex.id for ex in pool.examples] == ["e2", "e5"]
        assert pool.cluster_members == ((0, 1),)

    def test_preserves_relative_order_and_redensifies(self):
        examples = make_examples(7)
        assignment = [3, -1, 3, 1, -1, 1, 3]
        pool = filter_noise(examples, assignment)
        assert [ex.id for ex in pool.examples] == ["e0", "e2", "e3", "e5", "e6"]
        assert pool.assignment == (1, 1, 0, 0, 1)
        assert pool.n_clusters == 2


def contributions(pool, selected):
    per_cluster = [0] * pool.n_clusters
    for index in selected:
        per_cluster[pool.assignment[index]] += 1
    return per_cluster


class TestBuildPool:
    def test_single_cluster_takes_prefix(self):
        pool = pool_with_sizes([10])
        assert build_pool(pool, 3) == (0, 1, 2)

    def test_hand_case_k6(self):
        pool = pool_with_sizes([4, 3, 2])
        assert contributions(pool, build_pool(pool, 6)) == [2, 2, 2]

    def test_hand_case_k8_exhausts_smallest(self):
        pool = pool_with_sizes([4, 3, 2])
        assert contributions(pool, build_pool(pool, 8)) == [3, 3, 2]

    def test_k_larger_than_pool_takes_everything(self):
        pool = pool_with_sizes([4, 3, 2])
        selected = build_pool(pool, 100)
        assert sorted(selected) == list(range(9))
        assert len(selected) == 9

    def test_largest_cluster_visited_first(self):
        pool = pool_with_sizes([2, 5])
        selected = build_pool(pool, 1)
        assert pool.assignment[selected[0]] == 1

    def test_size_ties_break_by_ascending_id(self):
        pool = pool_with_sizes([3, 3])
        selected = build_pool(pool, 1)
        assert pool.assignment[selected[0]] == 0

    def test_selection_order_is_round_robin(self):
        pool = pool_with_sizes([2, 2])
        selected = build_pool(pool, 4)
        assert [pool.assignment[i] for i in selected] == [0, 1, 0, 1]

    def test_candidate_pool_restricts_members(self):
        pool = pool_with_sizes([4, 3, 2])
        working = pool.restrict(build_pool(pool, 6))
        assert working.examples == pool.examples
        assert working.n_clusters == 3
        assert working.cluster_sizes == (2, 2, 2)
        assert working.cluster_members == ((0, 1), (4, 5), (7, 8))
        for cid, members in enumerate(working.cluster_members):
            for index in members:
                assert pool.assignment[index] == cid

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            build_pool(pool_with_sizes([3]), 0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=12),
    st.integers(1, 120),
)
def test_round_robin_balance_property(sizes, k):
    pool = pool_with_sizes(sizes)
    selected = build_pool(pool, k)
    per_cluster = contributions(pool, selected)
    total = sum(sizes)
    assert len(selected) == min(k, total)
    c = len(sizes)
    low, high = k // c, math.ceil(k / c)
    if all(size >= high for size in sizes):
        assert all(count in (low, high) for count in per_cluster)
    # no cluster may out-contribute a strictly larger cluster by more than one
    for a in range(c):
        for b in range(c):
            if sizes[a] >= sizes[b]:
                assert per_cluster[a] >= per_cluster[b] - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-1, 5), max_size=40), st.one_of(st.integers(1, 50), st.integers(1, 2**63)))
def test_build_pool_orders_members_by_rank_then_cluster_place(labels, k):
    # the round-robin stated without rounds: the members sorted by their rank within their cluster, then by their
    # cluster's place among the clusters (larger first, equal sizes by ascending id), cut to k
    ids = sorted(set(labels) - {-1})
    pool = ClusteredPool(examples=tuple(make_examples(len(labels))), assignment=tuple(
        -1 if a == -1 else ids.index(a) for a in labels
    ))
    sizes = pool.cluster_sizes
    place = [sum((sizes[d], -d) > (sizes[c], -c) for d in range(len(sizes))) for c in range(len(sizes))]
    rank = {index: r for members in pool.cluster_members for r, index in enumerate(members)}
    expected = sorted(rank, key=lambda index: (rank[index], place[pool.assignment[index]]))[:k]
    assert build_pool(pool, k) == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=8), st.integers(1, 60))
def test_build_pool_candidate_invariants(sizes, k):
    pool = pool_with_sizes(sizes)
    selected = build_pool(pool, k)
    assert len(set(selected)) == len(selected)
    working = pool.restrict(selected)
    members = working.cluster_members
    assert all(members)
    assert all(list(m) == sorted(m) for m in members)
    # clusters keep the ascending order of their source ids
    source_ids = [pool.assignment[m[0]] for m in members]
    assert source_ids == sorted(set(source_ids))
    assert all(pool.assignment[i] == source_ids[cid] for cid, m in enumerate(members) for i in m)
    assert {i for m in members for i in m} == set(selected)
    assert working.cluster_sizes == tuple(len(m) for m in members)
    with pytest.raises(ValueError, match="duplicates"):
        pool.restrict(selected + selected[:1])
    with pytest.raises(ValueError, match="range"):
        pool.restrict((len(pool.examples),))
