"""Reduce stage: projection, density clustering, noise filtering, pool building."""

from exsel.reduce.density import NOISE, ClusteringParams, cluster
from exsel.reduce.pooling import ClusteredPool, build_pool, filter_noise
from exsel.reduce.projection import ProjectionConfig, load_precomputed, project

__all__ = [
    "NOISE",
    "ClusteredPool",
    "ClusteringParams",
    "ProjectionConfig",
    "build_pool",
    "cluster",
    "filter_noise",
    "load_precomputed",
    "project",
]
