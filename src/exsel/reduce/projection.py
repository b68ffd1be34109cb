"""Dimensionality reduction for embeddings.

Two methods. `in-repo-linear` is a deterministic variance-maximizing
linear map (center, SVD, keep the top directions), done by `project`;
it is not a manifold method and makes no attempt to be one, it exists so
the pipeline runs self-contained. `precomputed-import` replaces both
embedding and projection with vectors produced by any external projector
(row order must match the examples file): the runner reads them with
`load_precomputed` and checks their count and dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHOD_LINEAR = "in-repo-linear"
METHOD_PRECOMPUTED = "precomputed-import"


class ProjectionError(ValueError):
    """Raised for invalid projection configs or mismatched precomputed files."""


@dataclass(frozen=True)
class ProjectionConfig:
    method: str = METHOD_LINEAR
    target_dimension: int = 20
    precomputed_path: str | None = None

    def __post_init__(self) -> None:
        if self.method not in (METHOD_LINEAR, METHOD_PRECOMPUTED):
            raise ProjectionError(f"unknown projection method {self.method!r}")
        if self.target_dimension < 2:
            raise ProjectionError("target_dimension must be >= 2")
        if self.method == METHOD_PRECOMPUTED and not self.precomputed_path:
            raise ProjectionError("precomputed-import requires precomputed_path")


def load_precomputed(path: Path | str) -> np.ndarray:
    """Read one whitespace-separated vector per line; nan and inf are rejected."""
    rows: list[list[float]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError as exc:
                raise ProjectionError(f"{path}:{lineno}: non-numeric value") from exc
            if not all(map(math.isfinite, row)):
                raise ProjectionError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise ProjectionError(f"{path}: no vectors found")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ProjectionError(f"{path}:{i}: expected {width} values, found {len(row)}")
    return np.array(rows, dtype=np.float64)


def project(matrix: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    """Map an (n, d) embedding matrix to cfg.target_dimension dimensions; rows stay aligned with input."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ProjectionError("need a non-empty 2-d array of vectors")
    n, dim = matrix.shape
    if cfg.target_dimension > dim:
        raise ProjectionError(f"target_dimension {cfg.target_dimension} exceeds input dimension {dim}")

    centered = matrix - matrix.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    # canonical sign: the largest-magnitude entry of each direction is positive
    for row in vt:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    components = vt[: cfg.target_dimension]
    projected = centered @ components.T
    if projected.shape[1] < cfg.target_dimension:
        # rank-deficient input: pad with zero variance directions
        pad = np.zeros((n, cfg.target_dimension - projected.shape[1]))
        projected = np.hstack([projected, pad])
    return projected
