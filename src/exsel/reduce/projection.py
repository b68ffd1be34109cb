"""Dimensionality reduction for embeddings.

Two methods. `in-repo-linear` is a deterministic variance-maximizing
linear map (center, SVD, keep the top directions), done by `project`;
it is not a manifold method and makes no attempt to be one, it exists so
the pipeline runs self-contained. `precomputed-import` replaces both
embedding and projection with vectors produced by any external projector
(row order must match the examples file): the runner reads them with
`load_precomputed` and checks their count and dimension.

A small SVD, rows x columns x min(rows, columns) below 2**24, runs in one
BLAS thread when numpy's BLAS is the OpenBLAS bundled in its wheel; the
thread count is set automatically and restored after, and with any other
BLAS nothing extra is done. Measured on 2 cores (`BENCH_project.json`,
`widths`): the threaded call on 920 x 32 or 6,620 x 32 inputs sometimes
stalls for up to 0.46 s, while one thread takes 0.01-0.02 s and gives the
same bytes on every measured input up to 12,000 x 32. Larger SVDs keep
OpenBLAS's own thread count, since there threads pay (6,620 x 1,536:
3.5 s threaded, 5.1 s in one thread) and the threaded bytes already vary
with the thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
            if rows and len(row) != len(rows[0]):
                raise ProjectionError(f"{path}:{lineno}: expected {len(rows[0])} values, found {len(row)}")
            rows.append(row)
    if not rows:
        raise ProjectionError(f"{path}: no vectors found")
    return np.array(rows, dtype=np.float64)


# (get, set) thread-count symbols of the OpenBLAS that numpy wheels bundle:
# scipy-openblas64 from numpy 2.0 on, openblas64_ in numpy 1.x
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)

# An SVD whose work, rows x columns x min(rows, columns), is below this runs
# in one thread; larger ones keep OpenBLAS's own thread count.
_ONE_THREAD_WORK = 1 << 24

# the thread count is process-wide: one SVD at a time sets, uses and restores it
_svd_lock = threading.Lock()


def _openblas_paths() -> list[str]:
    """The OpenBLAS libraries bundled in numpy's wheel: numpy.libs (Linux, Windows) or numpy/.dylibs (macOS)."""
    numpy_dir = Path(np.__file__).resolve().parent
    bundled = (numpy_dir.parent / "numpy.libs", numpy_dir / ".dylibs")
    return sorted(str(p) for d in bundled for p in d.glob("*openblas*"))


@functools.cache
def _blas_thread_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """numpy's OpenBLAS (get, set) thread-count functions, or None when none is found."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _svd(centered: np.ndarray) -> np.ndarray:
    """The right singular vectors of `centered`, in one OpenBLAS thread when the work is small."""
    rows, cols = centered.shape
    small = rows * cols * min(rows, cols) < _ONE_THREAD_WORK
    controls = _blas_thread_controls() if small else None
    with _svd_lock:
        if controls is None:
            return np.linalg.svd(centered, full_matrices=False)[2]
        get, set_ = controls
        previous = get()
        set_(1)
        try:
            return np.linalg.svd(centered, full_matrices=False)[2]
        finally:
            set_(previous)


def project(matrix: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    """Map an (n, d) embedding matrix to cfg.target_dimension dimensions; rows stay aligned with input."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ProjectionError("need a non-empty 2-d array of vectors")
    n, dim = matrix.shape
    if cfg.target_dimension > dim:
        raise ProjectionError(f"target_dimension {cfg.target_dimension} exceeds input dimension {dim}")

    centered = matrix - matrix.mean(axis=0, keepdims=True)
    vt = _svd(centered)
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
