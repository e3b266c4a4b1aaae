"""Tests for pairwise unit-descriptor distances and exact top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import knn
from topodesc.errors import InvalidArgumentError, InvalidInputError


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def topk_bruteforce(x, k):
    """Full distance matrix, full sort, lowest-index tie-break."""
    n = x.shape[0]
    out = []
    for i in range(n):
        d = np.array([np.linalg.norm(x[i] - x[j]) for j in range(n)])
        order = [j for j in sorted(range(n), key=lambda j: (d[j], j)) if j != i]
        out.append(np.array(order[:k]))
    return out


class TestPairwiseDistances:
    def test_matches_direct_norm(self):
        rng = np.random.default_rng(5)
        x = unit_rows(rng, 12, 6)
        y = unit_rows(rng, 9, 6)
        got = knn.pairwise_distances(x, y)
        for i in range(12):
            for j in range(9):
                np.testing.assert_allclose(
                    got[i, j], np.linalg.norm(x[i] - y[j]), rtol=1e-9, atol=1e-9
                )

    def test_orthogonal_rows(self):
        x = np.eye(4)
        d = knn.pairwise_distances(x, x)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=0)
        off = d[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, np.sqrt(2.0), rtol=1e-15)

    def test_identical_rows_never_nan(self):
        """Dots that round above 1 must clamp to distance 0, not NaN."""
        rng = np.random.default_rng(6)
        x = unit_rows(rng, 40, 17)
        d = knn.pairwise_distances(x, x)
        assert np.all(np.isfinite(d))
        # self dots round to within one ulp of 1, so the diagonal is at
        # worst sqrt(4 eps) rather than exactly zero
        np.testing.assert_allclose(np.diag(d), 0.0, atol=4e-8)

    def test_opposite_rows(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[-1.0, 0.0]])
        np.testing.assert_allclose(knn.pairwise_distances(x, y), [[2.0]], rtol=0)

    def test_rejects_non_unit_row_naming_it(self):
        x = np.eye(3)
        x[1] *= 1.5
        with pytest.raises(InvalidInputError, match="row 1"):
            knn.pairwise_distances(x, np.eye(3))

    def test_rejects_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            knn.pairwise_distances(np.eye(3), np.eye(4))

    def test_rejects_non_finite(self):
        x = np.eye(3)
        x[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            knn.pairwise_distances(x, np.eye(3))


class TestTopKWithin:
    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(3, 24))
            x = unit_rows(rng, n, 5)
            # duplicate a few rows to force exact distance ties
            if n >= 6 and trial % 2 == 0:
                x[1] = x[0]
                x[n - 1] = x[n - 2]
            k = int(rng.integers(1, n))
            got = knn.neighbor_index_matrix(x, k)
            want = topk_bruteforce(x, k)
            assert got.shape == (n, k)
            for i in range(n):
                np.testing.assert_array_equal(got[i], want[i])

    def test_excludes_self_even_with_duplicates(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = knn.neighbor_index_matrix(x, 2)
        for i, row in enumerate(got):
            assert i not in row

    def test_distances_sorted_and_consistent(self):
        rng = np.random.default_rng(8)
        x = unit_rows(rng, 10, 4)
        idx = knn.neighbor_index_matrix(x, 5)
        dist = knn.pairwise_distances(x, x)
        for i in range(10):
            d = dist[i, idx[i]]
            assert np.all(np.diff(d) >= 0)

    def test_k_out_of_range(self):
        x = np.eye(4)
        with pytest.raises(InvalidArgumentError):
            knn.neighbor_index_matrix(x, 0)
        with pytest.raises(InvalidArgumentError):
            knn.neighbor_index_matrix(x, 4)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, seed):
        """Relabeling the batch relabels neighbor lists the same way."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        k = int(rng.integers(1, n))
        x = unit_rows(rng, n, 6)
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        base = knn.neighbor_index_matrix(x, k)
        shuffled = knn.neighbor_index_matrix(x[perm], k)
        for new_i in range(n):
            old_i = perm[new_i]
            np.testing.assert_array_equal(inv[base[old_i]], shuffled[new_i])


class TestNeighborIndexMatrix:
    def test_matches_top_k(self):
        rng = np.random.default_rng(9)
        x = unit_rows(rng, 8, 3)
        mat = knn.neighbor_index_matrix(x, 3)
        want = topk_bruteforce(x, 3)
        assert mat.shape == (8, 3)
        for i in range(8):
            np.testing.assert_array_equal(mat[i], want[i])
