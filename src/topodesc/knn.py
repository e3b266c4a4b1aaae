"""Dot products and distances of unit descriptors, and exact top-k selection.

Distances use the dot-product identity d(x, y) = sqrt(2 - 2 x.y), valid for
unit-length rows. unit_product forms one whole product (BLAS rounds a block
of its rows differently) and to_distance converts in place. The negative
miner (loss.hardest_negatives) and the selection below read the product
and convert only the entries they pick; pairwise_distances, which converts
all of it, serves eval. Selection is exact and runs on the raw product,
since the distance only ever grows as the dot product falls: a per-row
partial selection of the k nearest, ordered by (distance, index), converts
only the k candidates and the (k+1)-th nearest to distances, and any row
whose k-th distance is shared by an entry left outside is re-sorted in
full. Everything after the product is per row and runs in row ranges
across the CPUs (``_rows``). Training runs the two views' selections one
after the other: side by side, their two (n, n) products would double a
step's largest array.
"""

from __future__ import annotations

import numpy as np

from . import _rows
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


def unit_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (n, m) dot products x_i.y_j of two validated unit-row matrices.

    Passing the same array twice validates it once and computes the same
    general product as two distinct arrays would: x @ x.T would take numpy's
    symmetric-product route, slower than the general one, so a copy of x
    stands in for y. That product is bitwise symmetric only where the row
    count fills whole BLAS tiles.
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
    return x @ (x.copy() if same else y).T


def to_distance(g: np.ndarray) -> np.ndarray:
    """sqrt(2 - 2 g) of dot products g, in place; 2 + (-2 g) rounds exactly like 2 - 2 g."""
    np.clip(g, -1.0, 1.0, out=g)
    g *= -2.0
    g += 2.0
    return np.sqrt(g, out=g)


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances between rows of two unit-row matrices.

    Entry (i, j) is sqrt(2 - 2 x_i.y_j); dot products are clamped to [-1, 1]
    first, so 2 - 2 x_i.y_j is exactly >= 0 and rounding cannot produce NaN.
    """
    g = unit_product(x, y)
    _rows.in_parts(g.shape[0], lambda lo, hi: to_distance(g[lo:hi]))
    return g


def neighbor_index_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of the k nearest other rows of x, nearest first.

    Self-matches are excluded; equal computed distances resolve to the lower
    index, exactly as a full stable sort of each row of pairwise_distances(x, x)
    would, so repeated runs and reference sorts agree. Ties are ties of the
    computed distances: duplicated descriptors need not get bitwise equal
    distances, because BLAS may form x_i.x_j with different kernels across
    its tiles.

    Selection runs on the negated dot products, with the diagonal at +inf:
    the distance is a non-decreasing function of them in floating point too.
    One argpartition puts k candidates per row first and the (k+1)-th
    nearest in column k; only those k + 1 entries become distances. The
    candidates are put in (distance, index) order. A row whose (k+1)-th
    distance is at or below its k-th may have had a run of equal distances
    cut by the partition; only such rows are re-sorted in full.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k must be in [1, n-1] = [1, {n - 1}], got {k}")
    g = unit_product(x, x)
    idx = np.empty((n, k), dtype=np.intp)

    def select(lo, hi):
        gp = np.negative(g[lo:hi], out=g[lo:hi])
        rows = np.arange(lo, hi)
        gp[rows - lo, rows] = np.inf
        part = np.empty((hi - lo, k + 1), dtype=np.intp)
        for c in range(0, hi - lo, _rows.MIN_PART):  # chunks bound the (rows, n) index temporary
            chunk = slice(c, c + _rows.MIN_PART)
            part[chunk] = np.argpartition(gp[chunk], k, axis=1)[:, : k + 1]
        part[:, :k].sort(axis=1)
        dist = np.take_along_axis(gp, part, axis=1)
        dist = to_distance(np.negative(dist, out=dist))
        # with k = n - 1 the (k+1)-th entry is the row itself, at +inf, which cuts no run
        dist[part[:, k] == rows, k] = np.inf
        order = np.argsort(dist[:, :k], axis=1, kind="stable")
        idx[lo:hi] = np.take_along_axis(part[:, :k], order, axis=1)
        cut = np.flatnonzero(dist[:, k] <= dist[:, :k].max(axis=1))
        if cut.size:
            full = gp[cut]
            full = to_distance(np.negative(full, out=full))
            full[np.arange(cut.size), cut + lo] = np.inf
            idx[cut + lo] = np.argsort(full, axis=1, kind="stable")[:, :k]

    _rows.in_parts(n, select)
    return idx
