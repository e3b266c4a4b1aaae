"""Batch pairwise distances over unit descriptors and exact top-k selection.

Distances use the dot-product identity d(x, y) = sqrt(2 - 2 x.y), valid for
unit-length rows. Selection is an exact sort; batches stay small enough that
O(n^2 D) is fine.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError

UNIT_NORM_TOL = 1e-6


def _check_unit_rows(x: np.ndarray, name: str) -> None:
    norms = np.sqrt(np.sum(x * x, axis=1))
    bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
    if bad.size:
        i = int(bad[0])
        raise InvalidInputError(
            f"{name} row {i} is not unit length (norm={norms[i]!r})"
        )


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances between rows of two unit-row matrices.

    Entry (i, j) is sqrt(2 - 2 x_i.y_j); dot products are clamped to [-1, 1]
    first, so 2 - 2 x_i.y_j is exactly >= 0 and rounding cannot produce NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise InvalidInputError(
            f"descriptor sets must be 2-d with equal width, got {x.shape} and {y.shape}"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("first descriptor set contains non-finite entries")
    if not np.isfinite(y).all():
        raise InvalidInputError("second descriptor set contains non-finite entries")
    _check_unit_rows(x, "first set")
    _check_unit_rows(y, "second set")
    dots = np.clip(x @ y.T, -1.0, 1.0)
    return np.sqrt(2.0 - 2.0 * dots)


def neighbor_index_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of the k nearest other rows of x, nearest first.

    Self-matches are excluded; equal distances resolve to the lower index
    (a stable sort), so repeated runs and reference sorts agree exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k must be in [1, n-1] = [1, {n - 1}], got {k}")
    dist = pairwise_distances(x, x)
    np.fill_diagonal(dist, np.inf)
    # copy, so the result does not pin the whole (n, n) argsort buffer
    return np.argsort(dist, axis=1, kind="stable")[:, :k].copy()
