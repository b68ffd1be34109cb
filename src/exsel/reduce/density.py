"""Density-based clustering with noise, in the HDBSCAN family.

Pipeline: core distances -> mutual reachability -> minimum spanning tree
-> single-linkage hierarchy -> one top-down pass that condenses the
hierarchy and selects leaf clusters, stopping early where a split is
born below the epsilon merge threshold (`condense_tree`) -> labels with
noise as -1. A selected cluster's members are the points under the
linkage node where it starts.

Conventions, fixed for determinism:
  - Euclidean metric.
  - Core distance of a point is its distance to the min_samples-th
    nearest neighbor counting the point itself, so min_samples=1 makes
    mutual reachability collapse to the raw metric.
  - Leaf selection only; the hierarchy root is never a cluster, so an
    all-noise result is possible and valid.
  - Cluster labels are dense ints assigned by ascending condensed
    cluster id, numbered in breadth-first order; noise is -1.

Memory stays O(n) for a fixed dimension: the n x n mutual-reachability
matrix is never built. Each step of Prim's algorithm bounds the
distance from the newest tree point to every point not yet in the tree
with one matrix-vector product, skips the points whose bound proves
they cannot get closer, and computes exact distances for the rest only.
The bound carries a proven rounding margin and decides no edge itself:
every best, argmin and tie is decided by the same floats as a full row.
So the edges are exactly those of Prim over full rows with ties to the
lowest index; the tests keep that full-row loop as the reference.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

NOISE = -1

_CORE_CHUNK_FLOATS = 4_000_000  # ~32 MB of pairwise distances per block

# The MST filter's safety margin; mutual_reachability_mst proves it sufficient.
_SLACK = 1e-9  # relative, on both squared norms and on best^2
_FLOOR = 1e-300  # absolute, for rounding in subnormal squares
_NORM_LIMIT = 2.0**1000  # above this squared norm a point is never skipped


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


@dataclass(frozen=True)
class ClusteringParams:
    min_cluster_size: int = 9
    min_samples: int = 1
    cluster_selection_epsilon: float = 0.18

    def __post_init__(self) -> None:
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be >= 2")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not self.cluster_selection_epsilon >= 0:  # NaN too
            raise ValueError("cluster_selection_epsilon must be >= 0")


def core_distances(points: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance from each point to its min_samples-th neighbor, self included."""
    n = points.shape[0]
    k = min(min_samples, n) - 1
    if k <= 0:
        return np.zeros(n)
    from scipy.spatial.distance import cdist  # imported here: min_samples=1 never needs scipy

    core = np.empty(n)
    rows_per_block = max(1, _CORE_CHUNK_FLOATS // n)
    for start in range(0, n, rows_per_block):
        block = cdist(points[start : start + rows_per_block], points)
        core[start : start + rows_per_block] = np.partition(block, k, axis=1)[:, k]
    return core


def mutual_reachability_mst(points: np.ndarray, core: np.ndarray) -> list[tuple[int, int, float]]:
    """Prim's MST over mutual-reachability distances.

    Returns n-1 edges (a, b, weight). Ties resolve to the lowest point
    index, so output is deterministic for a fixed input order. Finite
    points whose distances overflow to inf raise ValueError.

    The working arrays hold only points not yet in the tree, in
    ascending index order. A point that joins the tree is marked dead in
    place and the arrays are compacted once dead slots exceed 1/16 of
    the live ones.

    Each step first filters the live points, then computes exact
    distances for the few that pass. A live point x can only change
    when its exact reach max(sqrt(fl(|x - c|^2)), core[x], core[c]) to
    the point c that just joined is strictly below its best b. Since
    the rounded sqrt is monotone and b is a float, fl(|x - c|^2) >= b^2
    rules that out. The filter proves this from the Gram identity
    |x - c|^2 = |x|^2 + |c|^2 - 2 x.c, one matrix-vector product per
    step against a copy of the live points scaled by -2 (exact, a power
    of two), and skips x when

        h[x] + h[c] - 2 x.c  >=  (1 + s) b^2 + FLOOR,  h[p] = (1 - s) |p|^2.

    Margin: in d dimensions, all roundings together, in the squared
    norms, the dot product, the exact squared distance and this test
    itself, err by at most about 2 (d + 3) 2^-53 relative to
    |x|^2 + |c|^2 and to b^2, in any summation order and with or
    without FMA, plus a few d 2^-1074 absolute from underflow. The
    slack s = max(1e-9, 2^-50 (d + 4)) covers the relative part four
    times over and FLOOR = 1e-300 the absolute part, so a skipped point
    provably keeps its best. Between points whose squared norms are at
    most 2^1000 no term of the estimate can overflow, and a bound that
    overflows is inf, which no estimate reaches. A point above that, or
    not finite, gets h = NaN: its own bound is NaN, and so is every
    estimate in the step after it joins the tree. NaN fails `>=`, so
    those points take the exact path. Dead slots get the bound -inf and
    so never reach it unless the estimate is NaN, when their inf best
    and inf core keep them from changing.

    The points that pass get the full-row arithmetic element by element:
    subtract, squared sum, sqrt, the two maximums and the strict `<`.
    So every best, every argmin and every tie is decided by the same
    floats as in Prim over full rows, and the edges, their order and
    their weights do not depend on the filter or on compaction.
    """
    n, dim = points.shape
    if n == 1:
        return []
    slack = max(_SLACK, 2.0**-50 * (dim + 4))
    sq = np.einsum("ij,ij->i", points, points)
    half = np.where(sq <= _NORM_LIMIT, (1.0 - slack) * sq, np.nan)
    ids = np.arange(1, n)
    scaled = -2.0 * points[1:]
    live_core = core[1:].astype(np.float64)
    best = np.full(n - 1, np.inf)
    bound = (1.0 + slack) * (best * best) + _FLOOR - half[1:]
    best_from = np.zeros(n - 1, dtype=np.int64)
    est_buf = np.empty(n - 1)
    skip_buf = np.empty(n - 1, dtype=bool)
    dead: list[int] = []
    current = 0
    edges: list[tuple[int, int, float]] = []
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range estimates end as NaN
        for _ in range(n - 1):
            m = len(ids)
            point = points[current]
            est = np.matmul(scaled, point, out=est_buf[:m])
            est += half[current]
            skip = np.greater_equal(est, bound, out=skip_buf[:m])
            cand = np.logical_not(skip, out=skip).nonzero()[0]
            if cand.size:
                rows = ids[cand]
                delta = points[rows]
                delta -= point
                reach = np.einsum("ij,ij->i", delta, delta)
                np.sqrt(reach, out=reach)
                np.maximum(reach, live_core[cand], out=reach)
                np.maximum(reach, core[current], out=reach)
                closer = reach < best[cand]
                moved, reach = cand[closer], reach[closer]
                best[moved] = reach
                best_from[moved] = current
                bound[moved] = (1.0 + slack) * (reach * reach) + _FLOOR - half[rows[closer]]
            slot = int(best.argmin())
            if not math.isfinite(best[slot]):
                raise ValueError("mutual-reachability distances overflow to inf; scale the points down")
            current = int(ids[slot])
            edges.append((int(best_from[slot]), current, float(best[slot])))
            best[slot] = np.inf
            live_core[slot] = np.inf
            bound[slot] = -np.inf
            dead.append(slot)
            if 16 * len(dead) > m - len(dead):
                keep = np.ones(m, dtype=bool)
                keep[dead] = False
                ids, scaled, live_core = ids[keep], scaled[keep], live_core[keep]
                best, best_from, bound = best[keep], best_from[keep], bound[keep]
                dead.clear()
    return edges


def single_linkage(edges: list[tuple[int, int, float]], n: int) -> list[tuple[int, int, float, int]]:
    """Merge MST edges ascending by weight into a dendrogram.

    Row i merges two current roots into new node n+i and records
    (left_root, right_root, weight, member_count).
    """
    order = sorted(range(len(edges)), key=lambda i: edges[i][2])
    uf = _UnionFind(n + len(edges))
    node_for_root = list(range(n))
    sizes = [1] * (n + len(edges))
    rows: list[tuple[int, int, float, int]] = []
    for new_index, edge_index in enumerate(order):
        a, b, weight = edges[edge_index]
        ra, rb = uf.find(a), uf.find(b)
        left, right = node_for_root[ra], node_for_root[rb]
        new_node = n + new_index
        size = sizes[left] + sizes[right]
        sizes[new_node] = size
        rows.append((left, right, weight, size))
        uf.union(ra, rb)
        node_for_root[uf.find(ra)] = new_node
    return rows


def _subtree_points(linkage: list[tuple[int, int, float, int]], n: int, node: int) -> list[int]:
    points: list[int] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur < n:
            points.append(cur)
        else:
            left, right, _, _ = linkage[cur - n]
            stack.append(left)
            stack.append(right)
    return points


def condense_tree(
    linkage: list[tuple[int, int, float, int]], n: int, min_cluster_size: int, epsilon: float
) -> list[int]:
    """Walk the dendrogram top-down once; return where each selected cluster starts.

    The walk is breadth-first from the root, and cluster ids grow in
    traversal order. At a node of cluster c, a side with at least
    min_cluster_size points is big:
      - one big side: c continues through it, and the small side's
        points fall out of c;
      - two big sides: c is selected if it is not the root and the
        split's birth scale is below epsilon; otherwise each side opens
        a new cluster;
      - no big side: c ends, and is selected unless it is the root.
    Single-linkage heights never rise going down, so this selects what
    climbing from each leaf to its first ancestor born at or above
    epsilon, stopping below the root, selects. The birth scale is
    1/lambda with lambda = 1/distance, the float HDBSCAN's condensed tree
    stores; it can differ from the distance in the last bit (1/(1/49) is
    49.00000000000001), so the distance itself is not compared.
    Returns the linkage node where each selected cluster starts, in
    ascending cluster id; the points under it are exactly that
    cluster's members.
    """
    if not linkage:
        return []
    root = n + len(linkage) - 1
    next_id = 1
    selected: list[tuple[int, int]] = []  # (cluster id, start node)
    queue: deque[tuple[int, int, int]] = deque([(root, 0, root)])  # (node, cluster id, start node); the root is 0
    while queue:
        node, cluster_id, start = queue.popleft()
        left, right, distance, _ = linkage[node - n]
        sides = [(child, 1 if child < n else linkage[child - n][3]) for child in (left, right)]
        big = [child for child, count in sides if count >= min_cluster_size]
        if len(big) == 2:
            lam = 1.0 / distance if distance > 0.0 else math.inf
            birth = 1.0 / lam if 0.0 < lam < math.inf else 0.0
            if cluster_id and birth < epsilon:
                selected.append((cluster_id, start))
                continue
            for child in big:
                queue.append((child, next_id, child))
                next_id += 1
        elif big:
            queue.append((big[0], cluster_id, start))
        elif cluster_id:
            selected.append((cluster_id, start))
    return [start for _, start in sorted(selected)]


def cluster(points: np.ndarray, params: ClusteringParams) -> np.ndarray:
    """Cluster rows of `points`; returns per-row labels with noise as -1.

    Deterministic for a fixed row order. All-noise output is valid.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-d array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    n = points.shape[0]
    if n < params.min_cluster_size:
        return np.full(n, NOISE, dtype=np.int64)
    core = core_distances(points, params.min_samples)
    edges = mutual_reachability_mst(points, core)
    linkage = single_linkage(edges, n)
    starts = condense_tree(linkage, n, params.min_cluster_size, params.cluster_selection_epsilon)
    labels = np.full(n, NOISE, dtype=np.int64)
    for label, node in enumerate(starts):
        labels[_subtree_points(linkage, n, node)] = label
    return labels
