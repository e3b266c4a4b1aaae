"""Tests for the linear algebra of the affine-fit kernel.

The Gram matrix, the regularized system and its Cholesky solve all live in
the one batched fit, ``topology.affine_weights``, and the autodiff array
helpers it calls; these tests reach them there and through the standalone
``gram_batched`` and ``solve_chol_batched`` tape ops, which share those
helpers. The system handed to the factorization is observed by wrapping
``autodiff.cholesky_factor``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import autodiff as ad
from topodesc.errors import SingularSystemError

from single_fit import fit_one


def gram_bruteforce(diffs):
    """Double-loop dot products, the obvious quadratic-time reference."""
    k = diffs.shape[0]
    s = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            s[i, j] = float(np.dot(diffs[i], diffs[j]))
    return s


def gram(diffs):
    """gram_batched on a single difference matrix (k, dim)."""
    return ad.gram_batched(ad.constant(ad.Tape(), diffs[None])).value[0]


def solve(m, rhs):
    """solve_chol_batched on a single system."""
    return ad.solve_chol_batched(ad.constant(ad.Tape(), m[None]), rhs).value[0]


def fitted_system(monkeypatch, diffs, eps):
    """The system M the fit factors, and its solution y = M^-1 1, for one anchor.

    The anchor is the origin and the neighbors are -diffs, so the fit's
    differences are exactly diffs. M is observed by wrapping
    ``autodiff.cholesky_factor`` and y by wrapping ``autodiff.cho_solve``.
    """
    systems, solutions = [], []
    real_factor, real_solve = ad.cholesky_factor, ad.cho_solve

    def factor_spy(m, first=0):
        systems.append(np.array(m))
        return real_factor(m, first)

    def solve_spy(lower, b):
        out = real_solve(lower, b)
        solutions.append(out.copy())
        return out

    monkeypatch.setattr(ad, "cholesky_factor", factor_spy)
    monkeypatch.setattr(ad, "cho_solve", solve_spy)
    fit_one(np.zeros(diffs.shape[1]), -diffs, eps)
    assert len(systems) == 1 and len(solutions) == 1
    return systems[0][0], solutions[0][0]


class TestGram:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            d = int(rng.integers(1, 17))
            diffs = rng.standard_normal((k, d))
            np.testing.assert_allclose(
                gram(diffs), gram_bruteforce(diffs), rtol=1e-12, atol=1e-12
            )

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = gram(rng.standard_normal((6, 3)))
            assert np.array_equal(s, s.T)


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_self_product_matches_triangle_sum_bitwise(self, dtype):
        """The lower triangle mirrored onto the upper by a sum is gram's oracle."""
        rng = np.random.default_rng(13)
        for n, k, dim in ((1, 1, 1), (5, 3, 2), (64, 8, 16), (300, 20, 32), (128, 20, 32)):
            d = rng.standard_normal((n, k, dim)).astype(dtype)
            full = d @ d.swapaxes(-1, -2)
            want = np.tril(full) + np.tril(full, -1).swapaxes(-1, -2)
            got = ad.gram(d)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestRegularizedSystem:
    def test_trace_relative_term(self, monkeypatch):
        # S = diag(2, 6)
        diffs = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 2.0]])
        m, _ = fitted_system(monkeypatch, diffs, 0.5)
        # trace 8, k 2 -> adds 0.5 * 4 = 2 on the diagonal
        np.testing.assert_allclose(m, np.array([[4.0, 0.0], [0.0, 8.0]]))

    def test_zero_trace_falls_back_to_plain_eps(self, monkeypatch):
        m, _ = fitted_system(monkeypatch, np.zeros((3, 3)), 1e-3)
        np.testing.assert_allclose(m, 1e-3 * np.eye(3))

    def test_eps_zero_is_identity_transform(self, monkeypatch):
        # S = [[1, 0.5], [0.5, 1.25]]
        diffs = np.array([[1.0, 0.0], [0.5, 1.0]])
        m, _ = fitted_system(monkeypatch, diffs, 0.0)
        assert np.array_equal(m, np.array([[1.0, 0.5], [0.5, 1.25]]))


class TestSolve:
    def test_matches_dense_inverse_for_small_systems(self):
        """Well-conditioned solves agree with explicit inversion."""
        rng = np.random.default_rng(21)
        for k in [1, 2, 3, 5, 8, 13, 21, 32]:
            a = rng.standard_normal((k, k + 4))
            s = a @ a.T + np.eye(k)
            rhs = rng.standard_normal(k)
            want = np.linalg.inv(s) @ rhs
            np.testing.assert_allclose(solve(s, rhs), want, rtol=1e-10)

    def test_explicit_two_by_two(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        # inverse of [[2,1],[1,2]] is [[2,-1],[-1,2]]/3; times ones -> 1/3, 1/3
        np.testing.assert_allclose(solve(s, np.ones(2)), np.array([1 / 3, 1 / 3]), rtol=1e-14)

    def test_positive_eps_marks_conditioning(self, monkeypatch):
        # S = 4 I is well conditioned; eps > 0 still regularizes it
        m, y = fitted_system(monkeypatch, np.array([[2.0, 0.0], [0.0, 2.0]]), 0.5)
        # regularized matrix is 4 + 0.5*4 = 6 on the diagonal
        np.testing.assert_allclose(m, 6.0 * np.eye(2), rtol=1e-14)
        np.testing.assert_allclose(y, np.full(2, 1 / 6), rtol=1e-14)

    def test_hopeless_matrix_raises(self):
        with pytest.raises(SingularSystemError):
            solve(-np.eye(3), np.ones(3))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 16))
    def test_residual_property(self, seed, k):
        """The returned solution solves the regularized system."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((k, k + 2))
        s = a @ a.T + 0.1 * np.eye(k)
        rhs = rng.standard_normal(k)
        m = s + 1e-3 * np.trace(s) / k * np.eye(k)
        np.testing.assert_allclose(m @ solve(m, rhs), rhs, rtol=1e-7, atol=1e-9)

