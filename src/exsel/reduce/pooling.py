"""Cluster-indexed example pools and round-robin candidate selection."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterable, Sequence

from exsel.corpus import Example
from exsel.reduce.density import NOISE


def _densify(labels: Iterable[int]) -> tuple[int, ...]:
    """Renumber non-noise ids to 0..m-1 in ascending order; noise stays -1."""
    labels = [int(a) for a in labels]
    remap = {old: new for new, old in enumerate(sorted(set(labels) - {NOISE}))}
    remap[NOISE] = NOISE
    return tuple(remap[a] for a in labels)


@dataclass(frozen=True)
class ClusteredPool:
    """Examples with per-example cluster assignment (noise = -1).

    `cluster_members[c]` lists member indices into `examples`, ascending,
    and `cluster_sizes[c]` its length. Cluster ids must be dense
    0..n_clusters-1.
    """

    examples: tuple[Example, ...]
    assignment: tuple[int, ...]
    cluster_members: tuple[tuple[int, ...], ...] = field(init=False)
    cluster_sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        examples = tuple(self.examples)
        assignment = tuple(int(a) for a in self.assignment)
        object.__setattr__(self, "examples", examples)
        object.__setattr__(self, "assignment", assignment)
        if len(examples) != len(assignment):
            raise ValueError(f"{len(examples)} examples but {len(assignment)} assignments")
        ids = sorted({a for a in assignment if a != NOISE})
        if any(a < NOISE for a in assignment):
            raise ValueError("cluster ids must be >= -1")
        if ids and ids != list(range(len(ids))):
            raise ValueError(f"cluster ids must be dense 0..{len(ids) - 1}, got {ids}")
        members: list[list[int]] = [[] for _ in ids]
        for index, cid in enumerate(assignment):
            if cid != NOISE:
                members[cid].append(index)
        object.__setattr__(self, "cluster_members", tuple(tuple(m) for m in members))
        object.__setattr__(self, "cluster_sizes", tuple(len(m) for m in members))

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_members)

    def restrict(self, selected: Sequence[int]) -> ClusteredPool:
        """The working pool over `selected` indices, cluster structure retained.

        Examples and their indices are unchanged; unselected examples
        become noise, and the clusters that keep a member are re-densified
        in ascending source id order.
        """
        chosen = set(selected)
        if len(chosen) != len(selected):
            raise ValueError("selected indices contain duplicates")
        if not chosen <= set(range(len(self.examples))):
            raise ValueError("selected indices out of range")
        labels = (a if i in chosen else NOISE for i, a in enumerate(self.assignment))
        return ClusteredPool(examples=self.examples, assignment=_densify(labels))


def filter_noise(examples: Sequence[Example], assignment: Sequence[int]) -> ClusteredPool:
    """Keep only non-noise examples, re-densify cluster ids, preserve order."""
    if len(examples) != len(assignment):
        raise ValueError("assignment must cover all examples")
    kept = [(example, int(a)) for example, a in zip(examples, assignment) if int(a) != NOISE]
    return ClusteredPool(
        examples=tuple(example for example, _ in kept),
        assignment=_densify(a for _, a in kept),
    )


def build_pool(pool: ClusteredPool, k: int) -> tuple[int, ...]:
    """Indices into `pool.examples` chosen round-robin over clusters.

    One example per visit, largest cluster first; size ties between
    clusters break by ascending cluster id, and within a cluster
    examples are taken in member-list order. Stops after k selections
    or when every cluster is exhausted. `pool.restrict` of the result
    is the size-k working pool.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = pool.cluster_sizes
    order = sorted(range(pool.n_clusters), key=lambda c: (-sizes[c], c))
    visits = zip_longest(*(pool.cluster_members[c] for c in order))  # one tuple per round, None where a cluster ran out
    return tuple(index for visit in visits for index in visit if index is not None)[:k]
