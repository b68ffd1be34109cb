"""Few-shot example selection toolkit.

Builds an optimized, fixed set of in-context examples in three stages:
synthesize a large candidate pool with an LLM, structure it with density
clustering (dropping noise), and search the clustered pool with a
(mu + lambda) genetic algorithm whose mutation operator adapts to
population diversity.
"""

from exsel.corpus import Example
from exsel.evolve import GAConfig, Gene, Genome, RunTrace, evolve
from exsel.metrics import ExtractionCounts, aggregate, score_example
from exsel.reduce import ClusteredPool, ClusteringParams, ProjectionConfig

__version__ = "0.1.0"

__all__ = [
    "ClusteredPool",
    "ClusteringParams",
    "Example",
    "ExtractionCounts",
    "GAConfig",
    "Gene",
    "Genome",
    "ProjectionConfig",
    "RunTrace",
    "aggregate",
    "evolve",
    "score_example",
]
