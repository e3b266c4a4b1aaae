"""Tests for the affine-fit weights and the topology distance."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import autodiff as ad
from topodesc import topology
from topodesc.errors import InvalidInputError
from topodesc.knn import neighbor_index_matrix

from recorded_loss import reshape, sub, sum_, take
from recorded_net import div
from single_fit import fit_eps, fit_one


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def stacked_fit(anchors, neighbors, eps):
    """affine_weights on constants for anchors (n, dim) with neighbors (n, k, dim).

    The fit runs under fit_eps(eps).
    """
    n, k, dim = neighbors.shape
    x = np.concatenate([anchors, neighbors.reshape(n * k, dim)])
    idx = n + np.arange(n * k).reshape(n, k)
    with fit_eps(eps):
        return topology.affine_weights(ad.constant(ad.Tape(), x), idx).value


def regularize_op(s, eps):
    """M_i = S_i + eps_i * trace(S_i) / k * I, or S_i + eps_i * I where trace(S_i) == 0, as a tape op.

    The gradient reaches S through the trace term as well, except where the
    trace is zero and the shift is the constant eps_i.
    """
    k = s.value.shape[-1]
    dtype = s.value.dtype
    diag = np.arange(k)
    eye = np.eye(k, dtype=dtype)
    tr = s.value[:, diag, diag].sum(axis=-1)
    nonzero = tr != 0
    coef = (eps / k).astype(dtype)
    shift = np.where(nonzero, tr * coef, eps.astype(dtype))
    value = s.value + shift[:, None, None] * eye

    def back(g):
        buf = np.zeros_like(s.value)
        buf[:, diag, diag] = (((g * eye).sum(axis=(1, 2)) * nonzero) * coef)[:, None]
        s._accumulate(g + buf)

    return ad.node(s.tape, value, (s,), back)


def tape_affine_weights(x, idx, eps=topology.EPS):
    """The fit as an eight-node tape composition: the oracle for the fused node.

    take, reshape, sub, gram_batched, regularize_op, solve_chol_batched,
    sum_ and div, each with its own backward; x is (n, dim) and idx (n, k).
    """
    n, k = idx.shape
    dim = x.value.shape[1]
    diffs = sub(reshape(x, (n, 1, dim)), take(x, idx))
    s = ad.gram_batched(diffs)
    m = regularize_op(s, np.full(n, eps))
    y = ad.solve_chol_batched(m, np.ones(k, dtype=x.value.dtype))
    return div(y, sum_(y, axis=1, keepdims=True))


def fit_and_gradient(fit, x, idx, eps, adjoint):
    """Weights of fit(leaf x, idx) under fit_eps(eps) and the gradient of <adjoint, w> in x."""
    tape = ad.Tape()
    leaf = ad.leaf(tape, x.copy())
    with fit_eps(eps):
        w = fit(leaf, idx)
    ad.backward(tape, w, adjoint)
    return w.value, leaf.grad


def column_major_fit_gradient(x, idx, adjoint, eps=topology.EPS):
    """Gradient of <adjoint, w> in x, with grad_S laid out as cho_solve's outputs are.

    cho_solve returns gb and y column-major, so their outer product has the
    anchor axis fastest. affine_weights builds grad_S C-order instead, which
    keeps (grad_S + grad_S') D on BLAS; this oracle keeps the old layout.
    """
    n, k = idx.shape
    d = x[:n, None, :] - x[idx]
    m = ad.gram(d)
    diag = np.arange(k)
    trace = m[:, diag, diag].sum(axis=-1)
    coef = np.asarray(eps / k, dtype=x.dtype)
    m[:, diag, diag] += np.where(trace != 0, trace * coef, np.asarray(eps, dtype=x.dtype))[:, None]
    lower = ad.cholesky_factor(m)
    y64 = ad.cho_solve(lower, np.ones((n, k)))
    y = y64.astype(x.dtype, copy=False)
    ysum = y.sum(axis=1, keepdims=True)
    g = np.asarray(adjoint, dtype=np.float64)
    gb = ad.cho_solve(lower, (g - (g * (y / ysum)).sum(axis=1, keepdims=True)) / ysum)
    grad_s = -gb[:, :, None] * y64[:, None, :]
    assert k == 1 or grad_s.strides[0] < grad_s.strides[1]
    grad_s[:, diag, diag] += (grad_s[:, diag, diag].sum(axis=1) * coef * (trace != 0))[:, None]
    grad_d = (grad_s + grad_s.swapaxes(-1, -2)) @ d
    grad_x = -ad.scatter_rows(idx, grad_d, x.shape)
    grad_x[:n] += grad_d.sum(axis=1)
    return grad_x.astype(x.dtype)


def assert_close_normwise(got, want, rtol):
    """|got - want| <= rtol * max|want| everywhere, and the dtype kept."""
    assert got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestFitWeights:
    def test_single_neighbor_forced_by_constraint(self):
        anchor, neighbors = np.array([3.0, 4.0]), np.array([[1.0, 0.0]])
        w = fit_one(anchor, neighbors)
        np.testing.assert_allclose(w, [1.0], rtol=0)
        residual = np.linalg.norm(anchor - w @ neighbors)
        np.testing.assert_allclose(residual, np.linalg.norm([2.0, 4.0]), rtol=1e-12)

    def test_symmetric_pair_splits_evenly(self):
        anchor = np.array([0.0, 1.0])
        neighbors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = fit_one(anchor, neighbors)
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(anchor - w @ neighbors), 1.0, rtol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(2, 12))
            w = fit_one(rng.standard_normal(d), rng.standard_normal((k, d)))
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)

    def test_negative_weights_are_preserved(self):
        # anchor outside the neighbors' convex hull forces a negative weight
        anchor = np.array([2.0, 0.0])
        neighbors = np.array([[1.0, 0.0], [0.0, 0.0]])
        w = fit_one(anchor, neighbors)
        assert w.min() < 0
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_residual_no_worse_than_nearest_neighbor_copy(self):
        # k <= d keeps the unregularized system nonsingular, so the fit is
        # the exact constrained optimum and the e_j feasibility bound applies
        rng = np.random.default_rng(18)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, min(d, 6) + 1))
            anchor = rng.standard_normal(d)
            neighbors = rng.standard_normal((k, d))
            w = fit_one(anchor, neighbors, eps=0.0)
            best_copy = min(np.linalg.norm(anchor - nb) for nb in neighbors)
            assert np.linalg.norm(anchor - w @ neighbors) <= best_copy + 1e-9

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
        base = fit_one(anchor, neighbors)
        moved = fit_one(anchor + shift, neighbors + shift)
        np.testing.assert_allclose(moved, base, atol=1e-8)

    def test_trace_relative_term_and_zero_trace_fallback(self):
        # one stack: S = diag(1, 9); S = [[1, 2], [2, 4]] (rank one, trace 5);
        # S = 0 (zero trace)
        anchors = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        neighbors = np.array(
            [[[1.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]]
        )
        w = stacked_fit(anchors, neighbors, 0.5)
        # zero trace: plain EPS on the diagonal
        np.testing.assert_allclose(w[2], [0.5, 0.5], rtol=1e-14)
        # EPS adds EPS * trace / k to every other system: diag(1, 9) -> diag(3.5, 11.5)
        y = np.array([1 / 3.5, 1 / 11.5])
        np.testing.assert_allclose(w[0], y / y.sum(), rtol=1e-14)


class TestAffineWeightsNode:
    """The fused fit node against the tape composition and finite differences."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("eps", [topology.EPS, 0.5])
    def test_matches_tape_oracle(self, dtype, rtol, eps):
        rng = np.random.default_rng(41)
        x = unit_rows(rng, 96, 8).astype(dtype)
        idx = neighbor_index_matrix(x, 12)  # k > dim: every S is singular
        adjoint = rng.standard_normal(idx.shape).astype(dtype)
        w, grad = fit_and_gradient(topology.affine_weights, x, idx, eps, adjoint)
        oracle = partial(tape_affine_weights, eps=eps)
        want_w, want_grad = fit_and_gradient(oracle, x, idx, eps, adjoint)
        assert_close_normwise(w, want_w, rtol)
        assert_close_normwise(grad, want_grad, rtol)

    @pytest.mark.parametrize("eps", [topology.EPS, 0.5])
    def test_gradient_matches_finite_differences(self, eps):
        # at eps = 0.5 the trace term carries a large share of the gradient
        rng = np.random.default_rng(43)
        x = rng.standard_normal((9, 4))
        idx = np.stack([np.delete(np.arange(9), i)[rng.permutation(8)[:3]] for i in range(9)])
        adjoint = rng.standard_normal(idx.shape)
        _, grad = fit_and_gradient(topology.affine_weights, x, idx, eps, adjoint)
        step = 1e-6
        numeric = np.zeros_like(x)
        with fit_eps(eps):
            for pos in np.ndindex(x.shape):
                bumped = x.copy()
                bumped[pos] += step
                plus = float(np.sum(adjoint * topology.affine_weight_values(bumped, idx)))
                bumped[pos] -= 2 * step
                minus = float(np.sum(adjoint * topology.affine_weight_values(bumped, idx)))
                numeric[pos] = (plus - minus) / (2 * step)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)


    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 20),
        extra=st.integers(1, 40),
        dim=st.integers(2, 48),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_column_major_grad_s_bitwise(self, k, extra, dim, dtype, seed):
        # dim = 1 is left out: there (k, k) @ (k, 1) runs as BLAS's
        # matrix-vector product, which rounds differently from the strided loop
        rng = np.random.default_rng(seed)
        x = unit_rows(rng, k + extra, dim).astype(dtype)
        idx = neighbor_index_matrix(x, k)
        adjoint = rng.standard_normal(idx.shape).astype(dtype)
        _, grad = fit_and_gradient(topology.affine_weights, x, idx, topology.EPS, adjoint)
        assert grad.tobytes() == column_major_fit_gradient(x, idx, adjoint).tobytes()


class TestTopologyVector:
    """batch_topology_vectors' dense rows: fitted weights at the kNN positions, zeros elsewhere."""

    def test_dense_form(self):
        # row 0 sits between rows 1 and 2; rows 1 and 2 are fitted exactly by row 0
        x = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        want = [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with fit_eps(0.0):
            np.testing.assert_allclose(topology.batch_topology_vectors(x, 2), want, atol=1e-15)

    def test_two_point_batch(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(topology.batch_topology_vectors(x, 1), [[0.0, 1.0], [1.0, 0.0]], rtol=0)

    def test_densified_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            t = topology.batch_topology_vectors(unit_rows(rng, 10, 5), k)
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)


def make_vector(length, support, values):
    """Dense topology vector: values at support, zeros elsewhere."""
    t = np.zeros(length)
    t[np.asarray(support)] = values
    return t


def union_l1_quarter(ta, tp):
    """Quarter of the l1 distance summed over the two supports only."""
    support_a, support_p = set(np.flatnonzero(ta)), set(np.flatnonzero(tp))
    total = sum(abs(ta[j]) for j in support_a - support_p)
    total += sum(abs(tp[j]) for j in support_p - support_a)
    total += sum(abs(ta[j] - tp[j]) for j in support_a & support_p)
    return 0.25 * total


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
            want = union_l1_quarter(ta, tp)
            np.testing.assert_allclose(topology.topology_distance(ta, tp), want, rtol=1e-12)

    def test_matrices_give_one_value_per_row(self):
        rng = np.random.default_rng(24)
        ta = topology.batch_topology_vectors(unit_rows(rng, 12, 5), 3)
        tp = topology.batch_topology_vectors(unit_rows(rng, 12, 5), 3)
        got = topology.topology_distance(ta, tp)
        assert got.shape == (12,)
        np.testing.assert_array_equal(got, [topology.topology_distance(a, p) for a, p in zip(ta, tp)])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            topology.topology_distance(make_vector(4, [0], [1.0]), make_vector(5, [0], [1.0]))
        with pytest.raises(InvalidInputError):
            topology.topology_distance(np.zeros((3, 4)), make_vector(4, [0], [1.0]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_metric_axioms(self, seed):
        """Symmetry and the triangle inequality on dense vectors."""
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
        t = topology.batch_topology_vectors(x, 4)
        idx = neighbor_index_matrix(x, 4)
        w = topology.affine_weight_values(x, idx)
        assert t.shape == (14, 14) and t.dtype == np.float64
        for i, row in enumerate(t):
            np.testing.assert_array_equal(np.flatnonzero(row), np.sort(idx[i]))
            np.testing.assert_array_equal(row[idx[i]], w[i])
            np.testing.assert_allclose(row.sum(), 1.0, atol=1e-8)
