"""Batch pairwise distances over unit descriptors and exact top-k selection.

Distances use the dot-product identity d(x, y) = sqrt(2 - 2 x.y), valid for
unit-length rows. Selection is exact: a whole-matrix partial selection of the
k smallest per row, ordered by (distance, index), with any row whose k-th
distance is shared by an entry left outside re-sorted in full. Batches stay
small enough that the O(n^2 D) distance matrix is fine.
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
    Passing the same array twice validates it once and computes the same
    general product as two distinct arrays would; that product is bitwise
    symmetric only where the row count fills whole BLAS tiles.
    """
    same = y is x
    x = np.asarray(x, dtype=np.float64)
    y = x if same else np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise InvalidInputError(
            f"descriptor sets must be 2-d with equal width, got {x.shape} and {y.shape}"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("first descriptor set contains non-finite entries")
    _check_unit_rows(x, "first set")
    if not same:
        if not np.isfinite(y).all():
            raise InvalidInputError("second descriptor set contains non-finite entries")
        _check_unit_rows(y, "second set")
    # In place on the one (n, m) product; 2 + (-2 d) rounds exactly like 2 - 2 d.
    # x @ x.T would take numpy's symmetric-product route, slower than the
    # general one that two distinct arrays take; a copy of x takes that one.
    d = x @ (x.copy() if same else y).T
    np.clip(d, -1.0, 1.0, out=d)
    d *= -2.0
    d += 2.0
    return np.sqrt(d, out=d)


def neighbor_index_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of the k nearest other rows of x, nearest first.

    Self-matches are excluded; equal computed distances resolve to the lower
    index, exactly as a full stable sort of each row would, so repeated runs
    and reference sorts agree. Ties are ties of the computed distances:
    duplicated descriptors need not get bitwise equal distances, because
    BLAS may form x_i.x_j with different kernels across its tiles.

    One argpartition picks k candidates per row, which are put in
    (distance, index) order. A row with more than k entries at or below its
    k-th distance may have had a run of equal distances cut by the
    partition; only such rows are re-sorted in full.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k must be in [1, n-1] = [1, {n - 1}], got {k}")
    dist = pairwise_distances(x, x)
    np.fill_diagonal(dist, np.inf)
    cand = np.argpartition(dist, k - 1, axis=1)[:, :k]
    cand.sort(axis=1)
    cand_d = np.take_along_axis(dist, cand, axis=1)
    order = np.argsort(cand_d, axis=1, kind="stable")
    idx = np.take_along_axis(cand, order, axis=1)
    cut = np.count_nonzero(dist <= cand_d.max(axis=1, keepdims=True), axis=1) > k
    if cut.any():
        idx[cut] = np.argsort(dist[cut], axis=1, kind="stable")[:, :k]
    return idx
