"""Blend schedule, negative mining, and the full batch objective."""

import dataclasses
import math

import numpy as np
import pytest

from topodesc import autodiff as ad
from topodesc import knn, topology
from topodesc import loss as L
from topodesc import net as netmod
from topodesc.config import RunConfig, resolve_config
from topodesc.errors import InvalidArgumentError, InvalidBatchError

from recorded_fit import recorded_fit_loss_graph
from single_fit import fit_one


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


PAPER = resolve_config("paper")
DESK = RunConfig()


def positive_distance(d_euclid: float, d_topo: float, lam: float) -> float:
    """Oracle blend lam * d_euclid + (1 - lam) * d_topo; lam must lie in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError(f"lambda must be in [0, 1], got {lam}")
    return lam * d_euclid + (1.0 - lam) * d_topo


class TestLambdaSchedule:
    def test_flat_before_decay_start(self):
        for it in (0, 1, 17, 49_999, 50_000):
            assert L.lambda_schedule(it, PAPER) == 1.0

    def test_first_decay_interval(self):
        assert L.lambda_schedule(50_001, PAPER) == 1.0 - PAPER.lambda_r
        assert L.lambda_schedule(60_000, PAPER) == 1.0 - PAPER.lambda_r
        assert L.lambda_schedule(60_001, PAPER) == 1.0 - 2 * PAPER.lambda_r

    def test_reaches_floor_exactly(self):
        assert L.lambda_schedule(250_000, PAPER) == 0.5
        assert L.lambda_schedule(10**9, PAPER) == 0.5

    def test_desk_constants(self):
        assert L.lambda_schedule(0, DESK) == 1.0
        assert L.lambda_schedule(500, DESK) == 1.0
        assert L.lambda_schedule(501, DESK) == 1.0 - 0.025
        assert L.lambda_schedule(1999, DESK) == 0.625
        assert L.lambda_schedule(2000, DESK) == 0.625

    def test_interval_rounding_is_ceil(self):
        # one sample past a boundary already counts the next full interval
        cfg = RunConfig(lambda_n0=10, lambda_N=5)
        assert L.lambda_schedule(10, cfg) == 1.0
        assert L.lambda_schedule(11, cfg) == 1.0 - cfg.lambda_r
        assert L.lambda_schedule(15, cfg) == 1.0 - cfg.lambda_r
        assert L.lambda_schedule(16, cfg) == 1.0 - 2 * cfg.lambda_r

    def test_negative_iteration_rejected(self):
        with pytest.raises(InvalidArgumentError):
            L.lambda_schedule(-1, PAPER)

    def test_monotone_nonincreasing(self):
        vals = [L.lambda_schedule(i, DESK) for i in range(0, 3000, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(DESK.lambda_floor <= v <= 1.0 for v in vals)


class TestResolveLambda:
    SHORT = RunConfig(k=3, lambda_n0=4, lambda_N=2)

    def test_dynamic_follows_schedule(self):
        for i in (0, 4, 5, 7, 11):
            assert L.resolve_lambda(i, self.SHORT) == L.lambda_schedule(i, self.SHORT)

    def test_fixed_value(self):
        assert L.resolve_lambda(3, RunConfig(lambda_mode="fixed:0.75")) == 0.75
        assert L.resolve_lambda(3, RunConfig(lambda_mode="fixed:1.0")) == 1.0

    def test_off_mode_pins_lambda_to_one(self):
        cfg = dataclasses.replace(self.SHORT, topology_gradient_mode="off")
        assert L.resolve_lambda(9999, cfg) == 1.0
        assert L.resolve_lambda(9999, dataclasses.replace(cfg, lambda_mode="fixed:0.25")) == 1.0

    @pytest.mark.parametrize(
        "mode, lambda_mode, iteration, lam",
        [
            ("through-weights", "fixed:0.5", 0, 0.5),
            ("detached", "fixed:0.25", 0, 0.25),
            ("through-weights", "dynamic", 7, 0.95),
            ("off", "fixed:0.5", 0, 1.0),
        ],
    )
    def test_batch_loss_reports_the_training_lambda(self, mode, lambda_mode, iteration, lam):
        rng = np.random.default_rng(24)
        va, vp = unit_rows(rng, 10, 5), unit_rows(rng, 10, 5)
        cfg = dataclasses.replace(self.SHORT, topology_gradient_mode=mode, lambda_mode=lambda_mode)
        rep = L.batch_loss(va, vp, iteration, cfg)
        assert rep.lam == L.resolve_lambda(iteration, cfg) == lam


class TestPositiveDistance:
    def test_pure_euclidean_at_one(self):
        assert positive_distance(0.4, 0.9, 1.0) == 0.4

    def test_pure_topology_at_zero(self):
        assert positive_distance(0.4, 0.9, 0.0) == 0.9

    def test_even_blend(self):
        assert positive_distance(0.4, 0.2, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_out_of_range_lambda(self):
        with pytest.raises(InvalidArgumentError):
            positive_distance(0.1, 0.1, 1.5)
        with pytest.raises(InvalidArgumentError):
            positive_distance(0.1, 0.1, -0.01)


def brute_hardest(i, cross):
    n = cross.shape[0]
    best = (np.inf, -1, -1)
    for j in range(n):
        if j != i and cross[i, j] < best[0]:
            best = (cross[i, j], i, j)
    for m in range(n):
        if m != i and cross[m, i] < best[0]:
            best = (cross[m, i], m, i)
    return best


def distance_matrix_miner(va, vp):
    """The miner on the whole distance matrix: masked argmin of rows and of columns."""
    cross = knn.pairwise_distances(va, vp)
    n = cross.shape[0]
    np.fill_diagonal(cross, np.inf)
    row_j = np.argmin(cross, axis=1)
    col_m = np.argmin(cross, axis=0)
    rows = np.arange(n)
    use_row = cross[rows, row_j] <= cross[col_m, rows]
    return np.where(use_row, rows, col_m), np.where(use_row, row_j, rows)


def assert_mines_like_the_distance_matrix(va, vp):
    got = L.hardest_negatives(va, vp)
    want = distance_matrix_miner(va, vp)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return got


def quantized_rows(rng, n, d):
    """Unit rows rounded to one decimal: few distinct products, many exact ties."""
    x = np.round(unit_rows(rng, n, d), 1)
    x[np.all(x == 0, axis=1), 0] = 1.0
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def one_ulp_pair():
    """va[0]'s products with vp[1] and vp[2] one ulp apart, rounding to one distance."""
    # in [0.25, 0.5) a product's ulp is a quarter of 2 - 2 g's, so neighbours often collide
    p = next(
        p for p in np.random.default_rng(12).uniform(0.26, 0.49, 100)
        if knn.to_distance(np.array([p])) == knn.to_distance(np.array([np.nextafter(p, 1.0)]))
    )
    q = np.nextafter(p, 1.0)
    va = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    vp = np.array([[-1.0, 0.0], [p, np.sqrt(1.0 - p * p)], [q, np.sqrt(1.0 - q * q)]])
    return va, vp


# Each case lists the pairs it is built to produce: (anchor, neg_u, neg_v).
HAND_CASES = {
    # products at 1 + 4e-7 and 1 + 8e-7 both clip to distance 0: the lower index wins
    "products_above_one": (
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0 + 4e-7, 0.0], [1.0 + 8e-7, 0.0], [0.6, 0.8]]),
        [(0, 0, 1)],
    ),
    # every product at or below -1: all distances are 2, and the anchor's own row wins
    "products_at_or_below_minus_one": (
        np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
        np.array([[-1.0 - 5e-7, 0.0], [-1.0, 0.0], [-1.0 - 9e-7, 0.0]]),
        [(0, 0, 1), (1, 1, 0), (2, 2, 0)],
    ),
    # the row's largest product is one ulp above -1, yet rounds to distance 2
    # like the lower-index product far below -1
    "largest_product_one_ulp_above_minus_one": (
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
        np.array([
            [0.0, -1.0],
            [-1.0 - 9e-7, 0.0],
            [np.nextafter(-1.0, 0.0), np.sqrt(1.0 - np.nextafter(-1.0, 0.0) ** 2)],
        ]),
        [(0, 0, 1)],
    ),
    "one_ulp_apart": (*one_ulp_pair(), [(0, 0, 1)]),
}


class TestHardestNegative:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            va, vp = unit_rows(rng, n, 3), unit_rows(rng, n, 3)
            cross = knn.pairwise_distances(va, vp)
            neg_u, neg_v = L.hardest_negatives(va, vp)
            for i in range(n):
                bd, bu, bv = brute_hardest(i, cross)
                assert cross[neg_u[i], neg_v[i]] == bd
                assert (neg_u[i], neg_v[i]) == (bu, bv)

    def test_two_element_batch(self):
        # d(0, 1) = sqrt(2) and d(1, 0) = sqrt(0.4): both anchors take (1, 0)
        va = np.array([[1.0, 0.0], [0.0, 1.0]])
        vp = np.array([[0.6, 0.8], [0.0, -1.0]])
        neg_u, neg_v = L.hardest_negatives(va, vp)
        assert (neg_u[0], neg_v[0]) == (1, 0)
        assert (neg_u[1], neg_v[1]) == (1, 0)

    def test_tie_prefers_own_row(self):
        # every unmatched pair of orthogonal axes lies at distance sqrt(2)
        neg_u, neg_v = L.hardest_negatives(np.eye(3), np.eye(3))
        assert (neg_u[1], neg_v[1]) == (1, 0)

    def test_tie_prefers_lower_index(self):
        va = np.eye(3)
        vp = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.6, 0.0, 0.8]])
        neg_u, neg_v = L.hardest_negatives(va, vp)
        assert (neg_u[0], neg_v[0]) == (0, 1)

    def test_batch_too_small(self):
        with pytest.raises(InvalidBatchError):
            L.hardest_negatives(np.eye(1), np.eye(1))

    def test_leaves_its_inputs_unchanged(self):
        rng = np.random.default_rng(7)
        va, vp = unit_rows(rng, 9, 4), unit_rows(rng, 9, 4)
        before = va.tobytes(), vp.tobytes()
        L.hardest_negatives(va, vp)
        assert (va.tobytes(), vp.tobytes()) == before

    def test_column_tie_runs_match_argmin(self):
        """Quantized descriptors tie in long runs down the columns and along the rows."""
        rng = np.random.default_rng(5)
        for n in (2, 3, 17, 255, 256, 257, 1024):
            for dim in (1, 2, 3):
                va = quantized_rows(rng, n, dim)
                assert_mines_like_the_distance_matrix(va, quantized_rows(rng, n, dim))
                assert_mines_like_the_distance_matrix(va, va[rng.permutation(n)])

    @pytest.mark.parametrize("n", [2, 3, 17, 255, 256, 257, 1024])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_distance_matrix_miner(self, n, dtype):
        rng = np.random.default_rng(n)
        for dim in (2, 8, 32):
            va = unit_rows(rng, n, dim).astype(dtype)
            assert_mines_like_the_distance_matrix(va, unit_rows(rng, n, dim).astype(dtype))
            assert_mines_like_the_distance_matrix(va, va.copy())
            near = va + 1e-9 * unit_rows(rng, n, dim).astype(dtype)
            assert_mines_like_the_distance_matrix(va, near)
            assert_mines_like_the_distance_matrix(near, va)

    @pytest.mark.parametrize("name", sorted(HAND_CASES))
    def test_distance_ties_a_product_order_would_break(self, name):
        va, vp, pairs = HAND_CASES[name]
        neg_u, neg_v = assert_mines_like_the_distance_matrix(va, vp)
        for anchor, u, v in pairs:
            assert (neg_u[anchor], neg_v[anchor]) == (u, v)


class TestSelectStructure:
    def test_negatives_match_scalar_miner(self):
        rng = np.random.default_rng(1)
        cfg = RunConfig(k=3)
        for _ in range(10):
            va = unit_rows(rng, 9, 5)
            vp = unit_rows(rng, 9, 5)
            st = L.select_structure(va, vp, cfg)
            cross = knn.pairwise_distances(va, vp)
            for i in range(9):
                _, u, v = brute_hardest(i, cross)
                assert st.neg_u[i] == u
                assert st.neg_v[i] == v

    def test_supports_match_knn(self):
        rng = np.random.default_rng(2)
        va = unit_rows(rng, 8, 4)
        vp = unit_rows(rng, 8, 4)
        st = L.select_structure(va, vp, RunConfig(k=2))
        np.testing.assert_array_equal(st.idx_a, knn.neighbor_index_matrix(va, 2))
        np.testing.assert_array_equal(st.idx_p, knn.neighbor_index_matrix(vp, 2))

    def test_off_mode_skips_topology_parts(self):
        rng = np.random.default_rng(3)
        va = unit_rows(rng, 4, 4)
        st = L.select_structure(va, va, RunConfig(k=200, topology_gradient_mode="off"))
        assert st.idx_a is None and st.gather_a is None

    def test_k_exceeding_batch_rejected(self):
        rng = np.random.default_rng(4)
        va = unit_rows(rng, 4, 4)
        with pytest.raises(InvalidBatchError, match="k=4"):
            L.select_structure(va, va, RunConfig(k=4))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InvalidBatchError):
            L.select_structure(unit_rows(rng, 4, 4), unit_rows(rng, 5, 4), RunConfig(k=2))

    def test_gather_matrices_select_union_positions(self):
        rng = np.random.default_rng(6)
        va = unit_rows(rng, 6, 4)
        vp = unit_rows(rng, 6, 4)
        st = L.select_structure(va, vp, RunConfig(k=2))
        # each gather row block reassembles the dense scatter of any weights
        w = rng.standard_normal((6, 2))
        for i in range(6):
            dense = np.zeros(6)
            np.add.at(dense, st.idx_a[i], w[i])
            via_gather = st.gather_a[i] @ w[i]
            union = np.unique(np.concatenate([st.idx_a[i], st.idx_p[i]]))
            np.testing.assert_allclose(via_gather[: union.size], dense[union], rtol=1e-15)
            np.testing.assert_array_equal(via_gather[union.size :], 0.0)


class TestBatchLossFixtures:
    def test_antipodal_pair_is_inactive(self):
        va = np.array([[1.0, 0.0], [-1.0, 0.0]])
        rep = L.batch_loss(va, va.copy(), 0, RunConfig(k=1))
        assert rep.loss == 0.0
        assert rep.active_triplets == 0
        assert rep.mean_d_neg == 2.0
        assert rep.mean_d_pos_euclid == 0.0
        assert rep.mean_d_pos_topo == 0.0
        assert rep.lam == 1.0

    def test_close_pair_exact_hinge(self):
        # second row is dyadic with squares summing to exactly 1, and its dot
        # with e1 is exactly 7/8, so the mined distance is exactly 0.5
        va = np.array(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.875, 0.375, 0.25, 0.125, 0.125],
            ]
        )
        assert float(va[1] @ va[1]) == 1.0
        for iteration in (0, 250_000):
            rep = L.batch_loss(va, va.copy(), iteration, RunConfig(k=1))
            assert rep.loss == 0.5
            assert rep.active_triplets == 2
            assert rep.mean_d_neg == 0.5
            assert rep.mean_d_pos_euclid == 0.0
            assert rep.mean_d_pos_topo == 0.0

    def test_margin_shifts_hinge(self):
        va = np.array(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.875, 0.375, 0.25, 0.125, 0.125],
            ]
        )
        rep = L.batch_loss(va, va.copy(), 0, RunConfig(margin=0.25, k=1))
        assert rep.loss == 0.0
        assert rep.active_triplets == 0


def oracle_loss(va, vp, lam, cfg, eps):
    """Scalar recomposition of the objective from the public building blocks."""
    n = va.shape[0]
    cross = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            dot = min(1.0, max(-1.0, float(va[i] @ vp[j])))
            cross[i, j] = math.sqrt(max(0.0, 2.0 - 2.0 * dot))

    idx_a = knn.neighbor_index_matrix(va, cfg.k)
    idx_p = knn.neighbor_index_matrix(vp, cfg.k)
    # dense topology vectors: row i holds anchor i's weights at its neighbors
    tvs_a, tvs_p = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        tvs_a[i, idx_a[i]] = fit_one(va[i], va[idx_a[i]], eps=eps)
        tvs_p[i, idx_p[i]] = fit_one(vp[i], vp[idx_p[i]], eps=eps)

    hinges = []
    for i in range(n):
        d_pos = cross[i, i]
        d_topo = float(topology.topology_distance(tvs_a[i], tvs_p[i]))
        gamma_neg, _, _ = brute_hardest(i, cross)
        gamma_pos = positive_distance(d_pos, d_topo, lam)
        hinges.append(max(0.0, cfg.margin + gamma_pos - gamma_neg))
    return sum(hinges) / n


class TestBatchLossAgainstOracle:
    def test_matches_scalar_composition(self):
        rng = np.random.default_rng(7)
        cfg = RunConfig(k=2)
        for trial in range(6):
            va = unit_rows(rng, 8, 5)
            vp = unit_rows(rng, 8, 5)
            for iteration in (0, 60_000, 250_000):
                lam = L.lambda_schedule(iteration, cfg)
                rep = L.batch_loss(va, vp, iteration, cfg)
                want = oracle_loss(va, vp, lam, cfg, eps=1e-3)
                assert rep.loss == pytest.approx(want, abs=1e-10)

    def test_matches_oracle_with_larger_k(self):
        rng = np.random.default_rng(8)
        cfg = RunConfig(k=5)
        va = unit_rows(rng, 16, 6)
        vp = unit_rows(rng, 16, 6)
        rep = L.batch_loss(va, vp, 250_000, cfg)
        want = oracle_loss(va, vp, 0.5, cfg, eps=1e-3)
        assert rep.loss == pytest.approx(want, abs=1e-10)

    def test_identical_views_reduce_to_negative_hinge(self):
        rng = np.random.default_rng(9)
        cfg = RunConfig(k=3)
        va = unit_rows(rng, 10, 5)
        rep = L.batch_loss(va, va.copy(), 0, cfg)
        cross = knn.pairwise_distances(va, va)
        want = np.mean([max(0.0, cfg.margin - brute_hardest(i, cross)[0]) for i in range(10)])
        assert rep.loss == pytest.approx(want, abs=5e-8)
        assert rep.mean_d_pos_topo == 0.0


class TestModeEquivalences:
    def test_off_equals_lambda_one_bitwise(self):
        rng = np.random.default_rng(10)
        va = unit_rows(rng, 12, 6)
        vp = unit_rows(rng, 12, 6)
        through = L.batch_loss(va, vp, 0, RunConfig(k=3))
        off = L.batch_loss(va, vp, 0, RunConfig(k=3, topology_gradient_mode="off"))
        assert through.lam == 1.0
        assert off.loss == through.loss
        assert off.mean_d_neg == through.mean_d_neg
        assert off.active_triplets == through.active_triplets

    def test_through_and_detached_share_the_loss_value(self):
        rng = np.random.default_rng(11)
        va = unit_rows(rng, 10, 5)
        vp = unit_rows(rng, 10, 5)
        a = L.batch_loss(va, vp, 250_000, RunConfig(k=3))
        b = L.batch_loss(va, vp, 250_000, RunConfig(k=3, topology_gradient_mode="detached"))
        assert a.loss == b.loss
        assert a.mean_d_pos_topo == b.mean_d_pos_topo

    def test_detached_equals_frozen_weight_gradients(self):
        # detached mode must be the same as pasting the fitted weights into a
        # through-weights structure as constants
        rng = np.random.default_rng(12)
        va = unit_rows(rng, 8, 5)
        vp = unit_rows(rng, 8, 5)
        cfg = RunConfig(k=2, topology_gradient_mode="detached")

        def grad_for(structure):
            tape = ad.Tape()
            ta = ad.leaf(tape, va)
            tp = ad.leaf(tape, vp)
            graph = L.build_loss_graph(ta, tp, 0.25, cfg, structure, tape)
            ad.backward(tape, graph.loss)
            return graph.report.loss, ta.grad.copy(), tp.grad.copy()

        loss_detached, ga, gp = grad_for(L.select_structure(va, vp, cfg))
        st = L.select_structure(va, vp, RunConfig(k=2))
        st.frozen_wa = topology.affine_weight_values(va, st.idx_a)
        st.frozen_wp = topology.affine_weight_values(vp, st.idx_p)
        loss_frozen, fa, fp = grad_for(st)
        assert loss_detached == loss_frozen
        np.testing.assert_array_equal(ga, fa)
        np.testing.assert_array_equal(gp, fp)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_detached_graph_fits_nothing(self, dtype, monkeypatch):
        rng = np.random.default_rng(16)
        va = unit_rows(rng, 8, 5).astype(dtype)
        vp = unit_rows(rng, 8, 5).astype(dtype)
        cfg = RunConfig(k=3, topology_gradient_mode="detached")
        st = L.select_structure(va, vp, cfg)
        np.testing.assert_array_equal(st.frozen_wa, topology.affine_weight_values(va, st.idx_a))
        np.testing.assert_array_equal(st.frozen_wp, topology.affine_weight_values(vp, st.idx_p))

        def refuse(*args):
            raise AssertionError("a detached loss graph must not fit weights")

        monkeypatch.setattr(topology, "affine_weights", refuse)
        monkeypatch.setattr(ad, "gram", refuse)
        monkeypatch.setattr(ad, "cholesky_factor", refuse)
        tape = ad.Tape()
        graph = L.build_loss_graph(ad.leaf(tape, va), ad.leaf(tape, vp), 0.25, cfg, st, tape)
        assert graph.weights_a.value is st.frozen_wa and graph.weights_p.value is st.frozen_wp
        assert not graph.weights_a.requires_grad and not graph.weights_p.requires_grad

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_lambda_one_keeps_the_fit_off_the_tape(self, dtype):
        # 1 - lambda = 0 multiplies d_T's adjoint to exact zeros, so leaving the
        # fits and the d_T chain off the tape must change no bit
        rng = np.random.default_rng(17)
        net = netmod.init_net((6, 16, 8), rng, dtype=dtype)
        patches_a = rng.standard_normal((12, 6))
        patches_p = patches_a + 0.3 * rng.standard_normal((12, 6))
        cfg = RunConfig(k=3)

        def step(build):
            tape = ad.Tape()
            leaves = netmod.make_leaves(net, tape)
            desc_a = netmod.forward(net, patches_a, tape, leaves)
            desc_p = netmod.forward(net, patches_p, tape, leaves)
            st = L.select_structure(desc_a.value, desc_p.value, cfg)
            graph = build(desc_a, desc_p, 1.0, cfg, st, tape)
            ad.backward(tape, graph.loss)
            return graph, len(tape.nodes), {name: t.grad.tobytes() for name, t in leaves.items()}

        graph, nodes, grads = step(L.build_loss_graph)
        want, want_nodes, want_grads = step(recorded_fit_loss_graph)
        assert not graph.weights_a.requires_grad and not graph.weights_p.requires_grad
        assert not graph.d_topo.requires_grad
        # two fits, two reshapes, two matmuls, sub, abs, sum, and the two muls of d_T
        assert nodes == want_nodes - 11
        assert graph.weights_a.value.tobytes() == want.weights_a.value.tobytes()
        assert graph.weights_p.value.tobytes() == want.weights_p.value.tobytes()
        assert graph.d_topo.value.tobytes() == want.d_topo.value.tobytes()
        assert graph.report == want.report and graph.report.mean_d_pos_topo > 0
        assert grads == want_grads

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bool_indicators_match_float_ones(self, dtype, monkeypatch):
        # each union slot holds at most one weight, so reading the indicators
        # as 0/1 in the weights' dtype must change no bit of ta, tp, d_T or a gradient
        rng = np.random.default_rng(18)
        net = netmod.init_net((6, 16, 8), rng, dtype=dtype)
        patches_a = rng.standard_normal((40, 6))
        patches_p = patches_a + 0.3 * rng.standard_normal((40, 6))
        cfg = RunConfig(k=5)
        matmul = ad.matmul
        products = []

        def recording(a, b):
            out = matmul(a, b)
            products.append(out)
            return out

        monkeypatch.setattr(ad, "matmul", recording)

        def step(build):
            products.clear()
            tape = ad.Tape()
            leaves = netmod.make_leaves(net, tape)
            desc_a = netmod.forward(net, patches_a, tape, leaves)
            desc_p = netmod.forward(net, patches_p, tape, leaves)
            st = L.select_structure(desc_a.value, desc_p.value, cfg)
            assert st.gather_a.dtype == st.gather_p.dtype == bool
            graph = build(desc_a, desc_p, 0.5, cfg, st, tape)
            ad.backward(tape, graph.loss)
            assert np.any(graph.weights_a.grad != 0) and np.any(graph.weights_p.grad != 0)
            ta, tp = products
            return [
                t.tobytes()
                for t in (ta.value, tp.value, graph.d_topo.value, graph.weights_a.grad, graph.weights_p.grad)
            ] + [t.grad.tobytes() for t in leaves.values()]

        got, want = step(L.build_loss_graph), step(recorded_fit_loss_graph)
        assert got == want

    def test_identical_pair_has_zero_gradient(self):
        # rows whose self-dot rounds to 1 or above: d = 0 exactly, and the
        # sqrt and clip gates must pass no gradient there
        x = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [1.0 + 2.0**-52, 0.0, 0.0, 0.0]])
        tape = ad.Tape()
        a = ad.leaf(tape, x)
        b = ad.leaf(tape, x.copy())
        d = L._row_euclidean(a, b, tape)
        ad.backward(tape, ad.sum_(d))
        np.testing.assert_array_equal(d.value, 0.0)
        np.testing.assert_array_equal(a.grad, 0.0)
        np.testing.assert_array_equal(b.grad, 0.0)

    def test_through_weights_gradient_sees_the_fit(self):
        rng = np.random.default_rng(15)
        va = unit_rows(rng, 8, 5)
        vp = unit_rows(rng, 8, 5)
        grads = {}
        for mode in ("through-weights", "detached"):
            cfg = RunConfig(k=2, topology_gradient_mode=mode)
            st = L.select_structure(va, vp, cfg)
            tape = ad.Tape()
            ta = ad.leaf(tape, va)
            tp = ad.leaf(tape, vp)
            graph = L.build_loss_graph(ta, tp, 0.25, cfg, st, tape)
            ad.backward(tape, graph.loss)
            grads[mode] = ta.grad.copy()
        assert not np.array_equal(grads["through-weights"], grads["detached"])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        cfg = RunConfig(k=3)
        va = unit_rows(rng, 12, 6)
        vp = unit_rows(rng, 12, 6)
        base = L.batch_loss(va, vp, 250_000, cfg)
        for _ in range(5):
            perm = rng.permutation(12)
            shuffled = L.batch_loss(va[perm], vp[perm], 250_000, cfg)
            assert shuffled.loss == pytest.approx(base.loss, abs=1e-12)
            assert shuffled.active_triplets == base.active_triplets


class TestValidation:
    def test_config_ranges(self):
        with pytest.raises(InvalidArgumentError):
            RunConfig(margin=0.0)
        with pytest.raises(InvalidArgumentError):
            RunConfig(k=0)
        with pytest.raises(InvalidArgumentError):
            RunConfig(lambda_N=0)
        with pytest.raises(InvalidArgumentError):
            RunConfig(lambda_n0=-1)
        with pytest.raises(InvalidArgumentError):
            RunConfig(lambda_r=0.0)
        with pytest.raises(InvalidArgumentError):
            RunConfig(lambda_floor=0.0)
        with pytest.raises(InvalidArgumentError):
            RunConfig(lambda_floor=1.5)
        with pytest.raises(InvalidArgumentError):
            RunConfig(topology_gradient_mode="sometimes")

    def test_batch_of_one_rejected(self):
        va = np.array([[1.0, 0.0]])
        with pytest.raises(InvalidBatchError):
            L.batch_loss(va, va, 0, RunConfig(k=1))

    def test_lambda_out_of_range_in_graph(self):
        rng = np.random.default_rng(14)
        va = unit_rows(rng, 4, 4)
        cfg = RunConfig(k=2)
        st = L.select_structure(va, va, cfg)
        tape = ad.Tape()
        with pytest.raises(InvalidArgumentError):
            L.build_loss_graph(
                ad.constant(tape, va), ad.constant(tape, va), 1.2, cfg, st, tape
            )

    def test_report_is_frozen(self):
        rep = L.LossReport(0.0, 1.0, 0.0, 0.0, 0.0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.loss = 1.0
