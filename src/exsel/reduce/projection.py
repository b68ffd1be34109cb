"""Dimensionality reduction for embeddings.

`project` is the in-repo map: a deterministic variance-maximizing linear
map (center, keep the top principal directions). It is not a manifold
method and makes no attempt to be one; it exists so the pipeline runs
self-contained. When `precomputed_path` names a file, its vectors,
produced by any external projector (row order must match the examples
file), replace both embedding and projection: the runner reads them with
`load_precomputed` and checks their count and dimension.

The linear map takes its directions from the eigenvectors of XᵀX (X the
centered n x d matrix), largest eigenvalue first: the right singular
vectors of X, from a symmetric eigenproblem on the smaller side instead of
an SVD (Golub & Van Loan, Matrix Computations, 4th ed., 2013). With at
least as many rows as columns that is the d x d XᵀX itself. With fewer
rows it is the n x n R Rᵀ, where Xᵀ = Q R, and Q maps its eigenvectors
back; the input's shape picks the side. The factorization, `eigh` and the
final product run in one BLAS thread when numpy's BLAS is the OpenBLAS
bundled in its wheel; the thread count is set automatically and restored
after, so the bytes do not depend on it. They still depend on the BLAS
build and CPU kernel. With any other BLAS the thread count is left as it
is. Seconds on 2 cores are in `BENCH_project.json`, under `widths`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


class ProjectionError(ValueError):
    """Raised for invalid projection configs or mismatched precomputed files."""


@dataclass(frozen=True)
class ProjectionConfig:
    target_dimension: int = 20
    precomputed_path: str | None = None  # set: import these vectors; None: embed and `project`

    def __post_init__(self) -> None:
        if self.target_dimension < 2:
            raise ProjectionError("target_dimension must be >= 2")


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


# (get, set) thread-count symbols of the scipy-openblas64 that numpy 2 wheels bundle
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")

# the thread count is process-wide: one projection at a time sets, uses and restores it
_blas_lock = threading.Lock()


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
        get, set_ = (getattr(lib, name, None) for name in _THREAD_SYMBOLS)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold `_blas_lock` and, when numpy's OpenBLAS thread controls are found, run the body in one thread."""
    get, set_ = _blas_thread_controls() or (lambda: None, lambda threads: None)
    with _blas_lock:
        previous = get()
        set_(1)
        try:
            yield
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
    del matrix  # when the caller kept no name for it, the input is freed here
    kept = min(n, cfg.target_dimension)  # like an SVD, at most min(n, d) directions
    projected = np.zeros((n, cfg.target_dimension))  # a rank-deficient input keeps zero-variance columns
    with _one_blas_thread():
        # eigh lists eigenvalues in ascending order
        if n < dim:
            # the n x n problem: with centered.T = Q R, XᵀX = Q (R Rᵀ) Qᵀ, so Q maps R Rᵀ's eigenvectors to XᵀX's
            basis, triangle = np.linalg.qr(centered.T)
            components = (basis @ np.linalg.eigh(triangle @ triangle.T)[1][:, ::-1][:, :kept]).T
        else:
            components = np.linalg.eigh(centered.T @ centered)[1][:, ::-1].T[:kept]
        # canonical sign: the largest-magnitude entry of each direction is positive
        components *= np.sign(components[np.arange(kept), np.abs(components).argmax(axis=1)])[:, None]
        np.matmul(centered, components.T, out=projected[:, :kept])
    return projected
