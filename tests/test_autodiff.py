"""The tape's nodes and the recorded oracles' generic ops against central finite differences."""

import numpy as np
import pytest

from topodesc import autodiff as ad
from topodesc.errors import DegenerateDescriptorError, SingularSystemError

from recorded_loss import abs_, add, clip, matmul, mul, relu, reshape, sqrt_, sub, sum_, take
from recorded_net import div, tanh_, transpose


def fd_gradients(fn, arrays, step=1e-6):
    """Central differences of a scalar-valued graph builder.

    fn(tape, *leaf_tensors) must return a scalar Tensor; arrays are the leaf
    values. Returns one gradient array per leaf.
    """

    def value_at(vals):
        tape = ad.Tape()
        leaves = [ad.constant(tape, v) for v in vals]
        return float(fn(tape, *leaves).value)

    grads = []
    for target in range(len(arrays)):
        g = np.zeros_like(arrays[target])
        for idx in np.ndindex(arrays[target].shape):
            bumped = [a.copy() for a in arrays]
            bumped[target][idx] += step
            f_plus = value_at(bumped)
            bumped[target][idx] -= 2 * step
            f_minus = value_at(bumped)
            g[idx] = (f_plus - f_minus) / (2 * step)
        grads.append(g)
    return grads


def tape_gradients(fn, arrays):
    tape = ad.Tape()
    leaves = [ad.leaf(tape, a.copy()) for a in arrays]
    out = fn(tape, *leaves)
    assert out.value.shape == ()
    ad.backward(tape, out)
    return [l.grad if l.grad is not None else np.zeros_like(l.value) for l in leaves]


def check(fn, *arrays, rtol=1e-6, atol=1e-8):
    analytic = tape_gradients(fn, list(arrays))
    numeric = fd_gradients(fn, list(arrays))
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


class TestElementwise:
    def test_square_gradient(self):
        tape = ad.Tape()
        p = ad.leaf(tape, np.array(3.0))
        out = mul(p, p)
        ad.backward(tape, out)
        np.testing.assert_allclose(p.grad, 6.0, rtol=1e-15)

    def test_add_sub_mul_div(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3)) + 3.0

        def fn(tape, x, y):
            return sum_(div(mul(add(x, y), sub(x, y)), y))

        check(fn, a, b)

    def test_broadcasting_gradients(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        c = rng.standard_normal((5, 1))

        def fn(tape, x, y, z):
            return sum_(mul(add(x, y), z))

        check(fn, a, b, c)

    def test_tanh(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        check(lambda tape, x: sum_(tanh_(x)), a)

    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    def test_dense(self, activation):
        rng = np.random.default_rng(30)
        x, w, b = rng.standard_normal((5, 3)), rng.standard_normal((4, 3)), rng.standard_normal(4)

        def fn(tape, x, w, b):
            y = ad.dense(x, w, b, activation)
            return sum_(mul(y, y))

        check(fn, x, w, b)

    def test_normalize_rows(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((4, 3))
        weights = rng.standard_normal((4, 3))
        check(lambda tape, x: sum_(mul(ad.normalize_rows(x), ad.constant(tape, weights))), x)

    @pytest.mark.parametrize("row, message", [(1, "zero-norm descriptor at row 1"), (2, "non-finite")])
    def test_normalize_rows_rejects_what_it_cannot_divide(self, row, message):
        x = np.ones((3, 2))
        x[row] = 0.0 if message.startswith("zero") else np.inf
        with pytest.raises(DegenerateDescriptorError, match=message):
            ad.normalize_rows(ad.constant(ad.Tape(), x))

    def test_sqrt_away_from_zero(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 3.0, size=(4,))
        check(lambda tape, x: sum_(sqrt_(x)), a)

    def test_sqrt_gated_at_zero(self):
        tape = ad.Tape()
        x = ad.leaf(tape, np.array([0.0, 4.0]))
        out = sum_(sqrt_(x))
        ad.backward(tape, out)
        np.testing.assert_array_equal(x.grad, [0.0, 0.25])

    def test_abs_subgradient_zero_at_kink(self):
        tape = ad.Tape()
        x = ad.leaf(tape, np.array([-2.0, 0.0, 3.0]))
        out = sum_(abs_(x))
        ad.backward(tape, out)
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_relu_gate(self):
        tape = ad.Tape()
        x = ad.leaf(tape, np.array([-1.0, 0.0, 2.0]))
        out = sum_(relu(x))
        ad.backward(tape, out)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_clip_passes_only_inside(self):
        tape = ad.Tape()
        x = ad.leaf(tape, np.array([-2.0, 0.3, 1.0, 2.0]))
        out = sum_(clip(x, -1.0, 1.0))
        ad.backward(tape, out)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))

        def fn(tape, x):
            s = sum_(mul(x, x), axis=1, keepdims=True)
            return sum_(sqrt_(s))

        check(fn, a)


class TestShapeOps:
    def test_matmul_2d(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check(lambda tape, x, y: sum_(matmul(x, y)), a, b)

    def test_matmul_batched(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((5, 4, 2))

        def fn(tape, x, y):
            return sum_(abs_(matmul(x, y)))

        check(fn, a, b)

    def test_matmul_broadcast_constant_batch(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((6, 4, 2))
        w = rng.standard_normal((5, 2, 1))

        def fn(tape, y):
            lhs = ad.constant(tape, g[:5])
            return sum_(matmul(lhs, y))

        check(fn, w)

    def test_transpose_and_reshape(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4))

        def fn(tape, x):
            t = transpose(x)
            r = reshape(t, (2, 6))
            return sum_(mul(r, r))

        check(fn, a)

    def test_take_scatter_adds(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 3))
        idx = np.array([[0, 1], [1, 1], [4, 0]])

        def fn(tape, x):
            rows = take(x, idx)
            return sum_(mul(rows, rows))

        check(fn, a)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "idx", [np.array([[0, 1], [1, 1], [4, 0], [1, 3]]), np.array([2, 0, -1, 2, 4])]
    )
    def test_take_backward_matches_add_at(self, idx, dtype):
        rng = np.random.default_rng(13)
        tape = ad.Tape()
        x = ad.leaf(tape, rng.standard_normal((5, 3, 2)).astype(dtype))
        rows = take(x, idx)
        adjoint = rng.standard_normal(rows.value.shape).astype(dtype)
        ad.backward(tape, rows, adjoint)
        want = np.zeros_like(x.value)
        np.add.at(want, idx, adjoint)
        assert x.grad.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_array_equal(x.grad, want)
        else:
            np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-6)


class TestBatchedFitOps:
    def test_gram_batched_value_and_gradient(self):
        rng = np.random.default_rng(12)
        d = rng.standard_normal((4, 3, 5))
        tape = ad.Tape()
        t = ad.constant(tape, d)
        s = ad.gram_batched(t)
        for i in range(4):
            np.testing.assert_allclose(s.value[i], d[i] @ d[i].T, rtol=1e-12)
            assert np.array_equal(s.value[i], s.value[i].T)

        def fn(tape, x):
            return sum_(abs_(ad.gram_batched(x)))

        check(fn, d)

    def test_solve_chol_batched_value(self):
        rng = np.random.default_rng(14)
        d = rng.standard_normal((6, 3, 5))
        m = d @ d.transpose(0, 2, 1) + np.eye(3)
        tape = ad.Tape()
        x = ad.solve_chol_batched(ad.constant(tape, m), np.ones(3))
        for i in range(6):
            np.testing.assert_allclose(x.value[i], np.linalg.solve(m[i], np.ones(3)), rtol=1e-10)

    def test_solve_chol_batched_gradient(self):
        rng = np.random.default_rng(15)
        d = rng.standard_normal((4, 3, 6))
        base = d @ d.transpose(0, 2, 1) + 2.0 * np.eye(3)

        def fn(tape, x):
            # symmetrize the perturbed input so the FD probe stays in the
            # symmetric matrix family the solver assumes
            sym = mul(add(x, transpose(x)), ad.constant(tape, np.asarray(0.5)))
            y = ad.solve_chol_batched(sym, np.ones(3))
            return sum_(mul(y, y))

        check(fn, base, rtol=1e-5)

    def test_solve_chol_batched_singular_names_anchor(self):
        m = np.stack([np.eye(2), -np.eye(2)])
        tape = ad.Tape()
        with pytest.raises(SingularSystemError, match="anchor 1"):
            ad.solve_chol_batched(ad.constant(tape, m), np.ones(2))


class TestBackwardEngine:
    def test_empty_tape_is_noop(self):
        tape = ad.Tape()
        ad.backward(tape)

    def test_constant_only_graph_leaves_no_gradients(self):
        tape = ad.Tape()
        c = ad.constant(tape, np.ones(3))
        out = sum_(c)
        ad.backward(tape, out)
        assert c.grad is None

    def test_gradient_accumulates_across_reuse(self):
        tape = ad.Tape()
        p = ad.leaf(tape, np.array([3.0]))
        out = sum_(add(mul(p, p), p))
        ad.backward(tape, out)
        np.testing.assert_allclose(p.grad, [7.0], rtol=1e-15)

    def test_first_gradient_is_an_owned_copy(self):
        tape = ad.Tape()
        x = ad.leaf(tape, np.zeros(3))
        g = np.array([1.0, 2.0, 3.0])
        x._accumulate(g)
        assert not np.shares_memory(x.grad, g)
        x._accumulate(g)
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_adjoint_scales_seed(self):
        tape = ad.Tape()
        p = ad.leaf(tape, np.array(5.0))
        out = mul(p, p)
        ad.backward(tape, out, adjoint=0.5)
        np.testing.assert_allclose(p.grad, 5.0, rtol=1e-15)
