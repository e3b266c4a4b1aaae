"""Tests for the affine-fit weights and the topology distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import autodiff as ad
from topodesc import topology
from topodesc.errors import InvalidInputError
from topodesc.knn import neighbor_index_matrix


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


class TestFitWeights:
    def test_single_neighbor_forced_by_constraint(self):
        fit = topology.fit_weights(np.array([3.0, 4.0]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(fit.weights, [1.0], rtol=0)
        np.testing.assert_allclose(fit.residual, np.linalg.norm([2.0, 4.0]), rtol=1e-12)

    def test_symmetric_pair_splits_evenly(self):
        anchor = np.array([0.0, 1.0])
        neighbors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        fit = topology.fit_weights(anchor, neighbors)
        np.testing.assert_allclose(fit.weights, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(fit.residual, 1.0, rtol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(2, 12))
            fit = topology.fit_weights(rng.standard_normal(d), rng.standard_normal((k, d)))
            np.testing.assert_allclose(fit.weights.sum(), 1.0, atol=1e-9)

    def test_negative_weights_are_preserved(self):
        # anchor outside the neighbors' convex hull forces a negative weight
        anchor = np.array([2.0, 0.0])
        neighbors = np.array([[1.0, 0.0], [0.0, 0.0]])
        fit = topology.fit_weights(anchor, neighbors, eps=0.0)
        assert fit.weights.min() < 0
        np.testing.assert_allclose(fit.weights.sum(), 1.0, atol=1e-12)

    def test_residual_no_worse_than_nearest_neighbor_copy(self):
        # k <= d keeps the unregularized system nonsingular, so the fit is
        # the exact constrained optimum and the e_j feasibility bound applies
        rng = np.random.default_rng(18)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, min(d, 6) + 1))
            anchor = rng.standard_normal(d)
            neighbors = rng.standard_normal((k, d))
            fit = topology.fit_weights(anchor, neighbors, eps=0.0)
            best_copy = min(np.linalg.norm(anchor - nb) for nb in neighbors)
            assert fit.residual <= best_copy + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_affine_invariance(self, seed):
        """Translating anchor and neighbors together leaves weights put."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        anchor = rng.standard_normal(d)
        neighbors = rng.standard_normal((k, d))
        shift = rng.standard_normal(d) * 10.0
        base = topology.fit_weights(anchor, neighbors)
        moved = topology.fit_weights(anchor + shift, neighbors + shift)
        np.testing.assert_allclose(moved.weights, base.weights, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            topology.fit_weights(np.ones(3), np.ones((2, 4)))

    def test_eps_zero_regularizes_only_the_singular_system(self):
        # one stack: S = diag(1, 9); S = [[1, 2], [2, 4]] (rank one, trace 5);
        # S = 0 (zero trace)
        anchors = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        neighbors = np.array(
            [[[1.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]]
        )

        def fit(eps):
            tape = ad.Tape()
            return topology.affine_weights(
                ad.constant(tape, anchors), ad.constant(tape, neighbors), eps
            ).value

        w = fit(0.0)
        # well conditioned: the plain system, no regularizer
        np.testing.assert_allclose(w[0], [0.9, 0.1], rtol=1e-14)
        # singular: retried with the trace-relative DEFAULT_EPS term
        m = np.array([[1.0, 2.0], [2.0, 4.0]]) + topology.DEFAULT_EPS * 5.0 / 2 * np.eye(2)
        y = np.linalg.solve(m, np.ones(2))
        np.testing.assert_allclose(w[1], y / y.sum(), rtol=1e-12)
        assert w[1].min() < 0
        # zero trace: plain DEFAULT_EPS on the diagonal
        np.testing.assert_allclose(w[2], [0.5, 0.5], rtol=1e-14)
        # eps > 0 adds eps * trace / k to every system: diag(1, 9) -> diag(3.5, 11.5)
        y = np.array([1 / 3.5, 1 / 11.5])
        np.testing.assert_allclose(fit(0.5)[0], y / y.sum(), rtol=1e-14)


class TestTopologyVector:
    def test_dense_form(self):
        fit = topology.LleWeights(0, np.array([0.7, 0.3]), 0.0)
        tv = topology.topology_vector(fit, np.array([2, 3]), 4)
        np.testing.assert_allclose(tv.densify(), [0.0, 0.0, 0.7, 0.3], rtol=0)

    def test_two_point_batch(self):
        fit = topology.LleWeights(0, np.array([1.0]), 0.0)
        tv = topology.topology_vector(fit, np.array([1]), 2)
        np.testing.assert_allclose(tv.densify(), [0.0, 1.0], rtol=0)

    def test_densified_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            fit = topology.fit_weights(rng.standard_normal(5), rng.standard_normal((k, 5)))
            idx = rng.choice(np.arange(1, 10), size=k, replace=False)
            tv = topology.topology_vector(fit, idx, 10)
            np.testing.assert_allclose(tv.densify().sum(), 1.0, atol=1e-9)

    def test_duplicate_index_rejected(self):
        fit = topology.LleWeights(0, np.array([0.5, 0.5]), 0.0)
        with pytest.raises(InvalidInputError):
            topology.topology_vector(fit, np.array([2, 2]), 4)

    def test_anchor_in_own_list_rejected(self):
        fit = topology.LleWeights(1, np.array([0.5, 0.5]), 0.0)
        with pytest.raises(InvalidInputError):
            topology.topology_vector(fit, np.array([1, 2]), 4)

    def test_out_of_range_rejected(self):
        fit = topology.LleWeights(0, np.array([1.0]), 0.0)
        with pytest.raises(InvalidInputError):
            topology.topology_vector(fit, np.array([4]), 4)


def make_vector(length, support, values):
    return topology.TopologyVector(
        length=length, support=np.asarray(support), values=np.asarray(values, dtype=float)
    )


class TestTopologyDistance:
    def test_identical_vectors(self):
        t = make_vector(6, [1, 2], [0.6, 0.4])
        assert topology.topology_distance(t, t) == 0.0

    def test_disjoint_unit_mass(self):
        ta = make_vector(8, [0, 1], [0.5, 0.5])
        tp = make_vector(8, [4, 5], [0.25, 0.75])
        np.testing.assert_allclose(topology.topology_distance(ta, tp), 0.5, rtol=0)

    def test_shared_support_swap(self):
        ta = make_vector(4, [2, 3], [0.7, 0.3])
        tp = make_vector(4, [2, 3], [0.3, 0.7])
        np.testing.assert_allclose(topology.topology_distance(ta, tp), 0.2, rtol=1e-15)

    def test_matches_densified_l1(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(4, 20))
            ka = int(rng.integers(1, n))
            kp = int(rng.integers(1, n))
            ta = make_vector(n, rng.choice(n, ka, replace=False), rng.standard_normal(ka))
            tp = make_vector(n, rng.choice(n, kp, replace=False), rng.standard_normal(kp))
            want = 0.25 * np.abs(ta.densify() - tp.densify()).sum()
            np.testing.assert_allclose(topology.topology_distance(ta, tp), want, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            topology.topology_distance(make_vector(4, [0], [1.0]), make_vector(5, [0], [1.0]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_metric_axioms(self, seed):
        """Symmetry and the triangle inequality on densified vectors."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        vecs = []
        for _ in range(3):
            k = int(rng.integers(1, n))
            vecs.append(
                make_vector(n, rng.choice(n, k, replace=False), rng.standard_normal(k))
            )
        a, b, c = vecs
        dab = topology.topology_distance(a, b)
        dba = topology.topology_distance(b, a)
        dac = topology.topology_distance(a, c)
        dcb = topology.topology_distance(c, b)
        assert dab == dba
        assert dab <= dac + dcb + 1e-12
        assert dab >= 0.0


class TestBatchTopologyVectors:
    def test_sum_to_one_and_support_matches_knn(self):
        rng = np.random.default_rng(29)
        x = unit_rows(rng, 14, 6)
        vectors = topology.batch_topology_vectors(x, 4)
        idx = neighbor_index_matrix(x, 4)
        for i, tv in enumerate(vectors):
            np.testing.assert_allclose(tv.values.sum(), 1.0, atol=1e-8)
            np.testing.assert_array_equal(tv.support, idx[i])
