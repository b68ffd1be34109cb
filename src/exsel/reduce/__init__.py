"""Reduce stage: projection, density clustering, noise filtering, pool building."""

from exsel.reduce.density import ClusteringParams, cluster
from exsel.reduce.pooling import NOISE, ClusteredPool, build_pool, filter_noise
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
