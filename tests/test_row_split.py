"""Per-row kernels split across threads give bitwise the results of one part.

Each test runs a kernel once with every row in one part and once split into
contiguous row ranges (``_rows._cpus`` stands in for the CPUs the process
may use), on batches at and just above the 256-row threshold.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import _rows, knn, loss, topology
from topodesc import autodiff as ad
from topodesc.errors import DegenerateFitError, SingularSystemError

THRESHOLD = 2 * _rows.MIN_PART
SIZES = st.integers(THRESHOLD, THRESHOLD + 45)
DTYPES = st.sampled_from([np.float64, np.float32])


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def in_parts_of(cpus, fn, *args):
    """fn(*args) with _rows seeing `cpus` CPUs; restores the real count after."""
    real = _rows._cpus
    _rows._cpus = lambda: cpus
    try:
        return fn(*args)
    finally:
        _rows._cpus = real


def one_and_split(fn, *args):
    """fn's results in one part and in parts over 2 and 3 CPUs."""
    return [in_parts_of(cpus, fn, *args) for cpus in (1, 2, 3)]


def assert_bitwise(results):
    first = results[0]
    for other in results[1:]:
        for a, b in zip(first, other):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def raised(fn, *args):
    try:
        fn(*args)
    except (SingularSystemError, DegenerateFitError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


class TestInParts:
    def test_ranges_cover_the_rows_and_the_first_stays_on_this_thread(self, monkeypatch):
        monkeypatch.setattr(_rows, "_cpus", lambda: 3)
        seen = []
        _rows.in_parts(3 * _rows.MIN_PART + 1, lambda lo, hi: seen.append((lo, hi, threading.get_ident())))
        seen.sort()
        assert [(lo, hi) for lo, hi, _ in seen] == [(0, 128), (128, 256), (256, 385)]
        assert seen[0][2] == threading.get_ident()
        assert all(ident != threading.get_ident() for _, _, ident in seen[1:])

    def test_below_the_threshold_one_part_on_this_thread(self, monkeypatch):
        monkeypatch.setattr(_rows, "_cpus", lambda: 8)
        seen = []
        _rows.in_parts(THRESHOLD - 1, lambda lo, hi: seen.append((lo, hi, threading.get_ident())))
        assert seen == [(0, THRESHOLD - 1, threading.get_ident())]

    def test_every_part_ends_before_the_lowest_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(_rows, "_cpus", lambda: 3)
        finished = []

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("part 0")
            time.sleep(0.2)
            finished.append(lo)
            raise ValueError(f"part {lo}")

        with pytest.raises(ValueError, match="part 0"):
            _rows.in_parts(3 * _rows.MIN_PART, fn)
        assert sorted(finished) == [128, 256]

        def upper_only(lo, hi):
            if lo:
                raise ValueError(f"part {lo}")

        with pytest.raises(ValueError, match="part 128"):
            _rows.in_parts(3 * _rows.MIN_PART, upper_only)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    # the fork is deliberate: a child of a process with a live pool must not hang
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_runs_a_split_knn(self, monkeypatch):
        monkeypatch.setattr(_rows, "_cpus", lambda: 2)
        x = unit_rows(np.random.default_rng(3), THRESHOLD + 11, 8)
        want = knn.neighbor_index_matrix(x, 5)  # starts the pool
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(knn.neighbor_index_matrix(x, 5), want) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in a split kNN")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0


class TestKnn:
    @settings(max_examples=40, deadline=None)
    @given(n=SIZES, dim=st.integers(1, 3), dtype=DTYPES, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_tie_runs_across_the_split_row(self, n, dim, dtype, seed, data):
        """Rounded rows in 1-3 dimensions tie in long runs; copies straddle row n // 2."""
        rng = np.random.default_rng(seed)
        x = np.round(unit_rows(rng, n, dim), 1)
        x[np.all(x == 0, axis=1), 0] = 1.0
        x /= np.sqrt(np.sum(x * x, axis=1, keepdims=True))
        mid = n // 2
        x[mid - 6 : mid + 6] = x[mid]
        x = x.astype(dtype)
        k = data.draw(st.integers(1, 30))
        results = one_and_split(lambda: (knn.neighbor_index_matrix(x, k), knn.pairwise_distances(x, x)))
        assert_bitwise(results)
        dist = results[0][1].copy()
        np.fill_diagonal(dist, np.inf)
        want = np.argsort(dist, axis=1, kind="stable")[:, :k]
        assert np.array_equal(results[0][0], want)


class TestMiner:
    @settings(max_examples=40, deadline=None)
    @given(n=SIZES, seed=st.integers(0, 2**32 - 1))
    def test_column_ties_whose_first_row_is_in_the_upper_part(self, n, seed):
        rng = np.random.default_rng(seed)
        cross = rng.integers(1, 4, size=(n, n)).astype(np.float64)
        mid = n // 2
        # columns whose minimum, 0.5, first appears below the split row, tied further down
        cols = rng.choice(n, size=12, replace=False)
        cross[mid + 1, cols] = 0.5
        cross[n - 1, cols] = 0.5
        results = one_and_split(lambda: loss.hardest_negatives(cross.copy()))
        assert_bitwise(results)
        neg_u, neg_v = results[0]
        masked = cross.copy()
        np.fill_diagonal(masked, np.inf)
        for i in range(n):
            best = min(masked[i].min(), masked[:, i].min())
            assert masked[neg_u[i], neg_v[i]] == best
            if masked[i].min() > best:
                assert neg_v[i] == i and neg_u[i] == int(np.flatnonzero(masked[:, i] == best)[0])
        for c in set(cols.tolist()) - {mid + 1, n - 1}:
            assert (neg_u[c], neg_v[c]) == (mid + 1, c)


class TestGathers:
    @settings(max_examples=30, deadline=None)
    @given(n=SIZES, k=st.integers(1, 20), dtype=DTYPES, seed=st.integers(0, 2**32 - 1))
    def test_match_one_part(self, n, k, dtype, seed):
        rng = np.random.default_rng(seed)
        idx_a = knn.neighbor_index_matrix(unit_rows(rng, n, 4), k)
        idx_p = knn.neighbor_index_matrix(unit_rows(rng, n, 4), k)
        assert_bitwise(one_and_split(loss._union_gathers, idx_a, idx_p, n, dtype))


def fit_forward_backward(x, idx, eps, adjoint):
    tape = ad.Tape()
    leaf = ad.leaf(tape, x.copy())
    w = topology.affine_weights(leaf, idx, eps)
    assert tape.nodes == [w]
    ad.backward(tape, w, adjoint)
    return w.value, leaf.grad


class TestFit:
    @settings(max_examples=40, deadline=None)
    @given(
        n=SIZES,
        k=st.integers(1, 16),
        dim=st.integers(1, 12),
        dtype=DTYPES,
        eps=st.sampled_from([topology.DEFAULT_EPS, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_and_backward_match_one_part(self, n, k, dim, dtype, eps, seed):
        rng = np.random.default_rng(seed)
        x = unit_rows(rng, n, dim)
        # copies give zero difference rows: singular systems the eps = 0 fit retries
        x[n // 2 + 1] = x[n // 2]
        x[3] = x[n - 2]
        x = x.astype(dtype)
        idx = knn.neighbor_index_matrix(x, k)
        adjoint = rng.standard_normal(idx.shape).astype(dtype)
        assert_bitwise(one_and_split(fit_forward_backward, x, idx, eps, adjoint))


def stacked(n, k, dim, seed):
    """x and idx where anchor i (row i) fits its own k neighbor rows only."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n + n * k, dim))
    return x, n + np.arange(n * k).reshape(n, k)


MARK = 1024.0


def negate_marked_grams(monkeypatch):
    """Fits whose first difference starts with MARK get -S: indefinite even regularized."""
    real = ad.mirrored_gram

    def gram(d):
        full = real(d)
        full[d[:, 0, 0] == MARK] *= -1
        return full

    monkeypatch.setattr(ad, "mirrored_gram", gram)


def mark_singular(x, idx, i):
    x[idx[i, 0]] = 0.0
    x[i, 0] = MARK


def make_degenerate(x, idx, i):
    x[idx[i]] = x[i] + 1e152 * x[idx[i]]


class TestFitErrorsNameTheGlobalAnchor:
    N = THRESHOLD + 37

    @pytest.mark.parametrize("bad, named", [([200], 200), ([20, 200], 20), ([150, 290], 150)])
    def test_singular_system(self, monkeypatch, bad, named):
        negate_marked_grams(monkeypatch)
        x, idx = stacked(self.N, 4, 3, 1)
        for i in bad:
            mark_singular(x, idx, i)
        for cpus in (1, 2, 3):
            got = in_parts_of(cpus, raised, topology.affine_weight_values, x, idx)
            assert got == (SingularSystemError, f"symmetric factorization failed for anchor {named}")

    @pytest.mark.parametrize("bad, named", [([201], 201), ([9, 201], 9)])
    def test_vanishing_normalizer(self, bad, named):
        x, idx = stacked(self.N, 4, 3, 2)
        for i in bad:
            make_degenerate(x, idx, i)
        results = [in_parts_of(cpus, raised, topology.affine_weight_values, x, idx) for cpus in (1, 2, 3)]
        assert results[0][0] is DegenerateFitError
        assert results[0][1].endswith(f"for anchor {named}")
        assert results[1] == results[0] == results[2]

    def test_singular_in_the_upper_part_outranks_a_vanishing_normalizer_below(self, monkeypatch):
        negate_marked_grams(monkeypatch)
        x, idx = stacked(self.N, 4, 3, 3)
        make_degenerate(x, idx, 5)
        mark_singular(x, idx, 250)
        for cpus in (1, 2, 3):
            got = in_parts_of(cpus, raised, topology.affine_weight_values, x, idx)
            assert got == (SingularSystemError, "symmetric factorization failed for anchor 250")
