"""Package acceptance checks.

One test per numbered criterion; each line of `pytest -v` output is the
pass/fail verdict for that criterion. Full-scale verification numbers are
out of reach on a desk machine, so these are solver-oracle equivalences,
exact schedule and baseline reductions, and scaled-down training behavior.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import cli, data, knn, metrics, topology, train
from topodesc.config import RunConfig
from topodesc.loss import LossConfig, lambda_schedule
from topodesc.net import embed, init_net

from single_fit import fit_one


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------- criterion 1


def projected_gradient_weights(anchor, neighbors, iters=400):
    """Minimize ||anchor - w @ neighbors|| s.t. sum(w) = 1 by projected gradients.

    Gradients are projected onto the sum-zero tangent space, steps use exact
    line search, and successive directions are conjugated (Fletcher-Reeves,
    restarted every k steps) so that badly conditioned Gram matrices still
    converge inside the iteration budget. Built only from gradient and
    projection primitives; never touches the closed form or the Cholesky
    path under test.
    """
    k = neighbors.shape[0]
    if k == 1:
        return np.array([1.0])
    w = np.full(k, 1.0 / k)

    def tangent_gradient(w):
        g = -2.0 * (neighbors @ (anchor - w @ neighbors))
        return g - g.mean()

    g = tangent_gradient(w)
    # once the gradient falls 14 decades it is cancellation noise; stepping
    # along it would amplify rounding into constraint drift
    floor = max(float(g @ g) * 1e-28, 1e-60)
    d = -g
    since_restart = 0
    for _ in range(iters):
        gg = float(g @ g)
        if gg <= floor:
            break
        dn = d @ neighbors
        denom = float(dn @ dn)
        if denom == 0.0:
            if since_restart == 0:
                break
            d = -g
            since_restart = 0
            continue
        r = anchor - w @ neighbors
        w = w + (float(r @ dn) / denom) * d
        w = w + (1.0 - w.sum()) / k
        g_next = tangent_gradient(w)
        since_restart += 1
        if since_restart >= k:
            d = -g_next
            since_restart = 0
        else:
            d = -g_next + (float(g_next @ g_next) / gg) * d
        g = g_next
    return w


def test_criterion_1_affine_fit_matches_projected_gradient_oracle():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(200):
        dim = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 9))
        anchor = rng.standard_normal(dim)
        neighbors = rng.standard_normal((k, dim))
        # eps=1e-10 keeps the conditioning term below the comparison
        # tolerance; the default 1e-3 solves a visibly shifted objective
        w_cf = fit_one(anchor, neighbors, eps=1e-10)
        w_pg = projected_gradient_weights(anchor, neighbors)
        obj_cf = float(np.sum((anchor - w_cf @ neighbors) ** 2))
        obj_pg = float(np.sum((anchor - w_pg @ neighbors) ** 2))
        worst_gap = max(worst_gap, abs(obj_cf - obj_pg))
        worst_sum = max(worst_sum, abs(float(w_cf.sum()) - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst_gap <= 1e-6
    assert worst_sum <= 1e-9
    assert elapsed < 5.0
    print(
        f"criterion 1 PASS: objective gap {worst_gap:.2e} <= 1e-6, "
        f"weight sum error {worst_sum:.2e} <= 1e-9, {elapsed:.2f}s"
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_knn_matches_full_sort_bruteforce():
    rng = np.random.default_rng(20240818)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 129))
        d = int(rng.integers(3, 11))
        x = unit_rows(rng, n, d)
        # duplicated rows give ties only where BLAS computes their distances
        # bitwise equal; the oracle sorts the same computed matrix
        for _ in range(int(rng.integers(0, 4))):
            a, b = rng.integers(0, n, size=2)
            x[b] = x[a]
        k = int(rng.integers(1, n))
        result = knn.neighbor_index_matrix(x, k)
        dist = knn.pairwise_distances(x, x)
        for i in range(n):
            order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i, j], j))
            assert result[i].tolist() == order[:k]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2 PASS: 100 batches match the sorted oracle exactly, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_gradcheck_passes_in_all_modes(capsys):
    t0 = time.perf_counter()
    assert cli.main(["gradcheck", "--seed", "0", "--tol", "1e-4"]) == 0
    assert cli.main(["gradcheck", "--seed", "0", "--mode", "detached", "--tol", "1e-5"]) == 0
    assert cli.main(["gradcheck", "--seed", "0", "--lam", "1.0", "--tol", "1e-5"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    capsys.readouterr()
    print(
        "criterion 3 PASS: through-weights < 1e-4, detached < 1e-5, "
        f"lambda=1 < 1e-5, {elapsed:.2f}s"
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_blend_schedule_values():
    cfg = LossConfig()
    assert abs(lambda_schedule(0, cfg) - 1.0) <= 1e-12
    assert abs(lambda_schedule(50_000, cfg) - 1.0) <= 1e-12
    assert abs(lambda_schedule(60_000, cfg) - 0.975) <= 1e-12
    assert abs(lambda_schedule(250_000, cfg) - 0.5) <= 1e-12
    print("criterion 4 PASS: schedule hits 1.0 / 1.0 / 0.975 / 0.5 within 1e-12")


# ------------------------------------------------------- shared desk fixtures


@pytest.fixture(scope="module")
def desk_dataset():
    return data.generate(seed=7, scenes=512, dim=16, noise_sigma=0.05, distortion=0.3)


@pytest.fixture(scope="module")
def desk_runs(desk_dataset):
    """Five seeded default-preset runs plus their held-out metric reports."""
    t0 = time.perf_counter()
    _, heldout = data.split_train_heldout(desk_dataset)
    runs = []
    for seed in range(5):
        result = train.run_training(RunConfig(seed=seed), dataset=desk_dataset)
        desc_a = embed(result.net, heldout.views_a)
        desc_p = embed(result.net, heldout.views_p)
        report = metrics.evaluate_descriptors(desc_a, desc_p, 10, np.random.default_rng(0))
        runs.append((result, report))
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_topology_off_reduces_to_plain_triplet_loss(desk_dataset):
    cfg_off = RunConfig(seed=3, iterations=100, topology_gradient_mode="off")
    cfg_fixed = RunConfig(seed=3, iterations=100, lambda_mode="fixed:1.0")
    off = train.run_training(cfg_off, dataset=desk_dataset)
    fixed = train.run_training(cfg_fixed, dataset=desk_dataset)
    worst = 0.0
    for row_off, row_fixed in zip(off.rows, fixed.rows):
        worst = max(worst, abs(row_off.loss - row_fixed.loss))
        assert row_off.active_triplets == row_fixed.active_triplets
    assert worst <= 1e-12
    print(f"criterion 5 PASS: 100-step trajectory difference {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_topology_distance_halves_under_training(desk_runs):
    ratios = []
    for result, _ in desk_runs["runs"]:
        first = float(np.mean([r.mean_d_pos_topo for r in result.rows[:10]]))
        last = result.rows[-1].mean_d_pos_topo
        ratios.append(last / first)
    passing = sum(r <= 0.5 for r in ratios)
    assert passing >= 4, f"ratios {ratios}"
    assert desk_runs["elapsed"] < 300.0
    print(
        f"criterion 6 PASS: d_T end/start ratios {[f'{r:.3f}' for r in ratios]}, "
        f"{passing}/5 seeds <= 0.5, {desk_runs['elapsed']:.1f}s"
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_heldout_metrics_and_clean_data_floor(desk_runs):
    passing = sum(
        rep.fpr95 < 0.15 and rep.mAP > 0.9 for _, rep in desk_runs["runs"]
    )
    assert passing >= 4, [(rep.fpr95, rep.mAP) for _, rep in desk_runs["runs"]]

    clean = data.generate(seed=8, scenes=128, dim=16, noise_sigma=0.0, distortion=0.0)
    net = desk_runs["runs"][0][0].net
    desc_a = embed(net, clean.views_a)
    desc_p = embed(net, clean.views_p)
    report = metrics.evaluate_descriptors(desc_a, desc_p, 10, np.random.default_rng(0))
    assert report.fpr95 == 0.0
    print(
        f"criterion 7 PASS: {passing}/5 seeds reach fpr95 < 0.15 and mAP > 0.9; "
        "clean data fpr95 == 0.0"
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_metric_oracles_exact():
    rng = np.random.default_rng(20240819)

    def sweep_oracle(matches, nons):
        matches = sorted(matches)
        n = len(matches)
        for t in matches:
            if sum(1 for v in matches if v <= t) * 20 >= 19 * n:
                return sum(1 for v in nons if v <= t) / len(nons)
        raise AssertionError("unreachable")

    for _ in range(100):
        n_pos = int(rng.integers(1, 80))
        n_neg = int(rng.integers(1, 80))
        matches = rng.uniform(0, 2, size=n_pos).tolist()
        nons = rng.uniform(0, 2, size=n_neg).tolist()
        is_match = np.arange(n_pos + n_neg) < n_pos
        assert metrics.fpr95(np.array(matches + nons), is_match) == sweep_oracle(matches, nons)

    for _ in range(100):
        nq = int(rng.integers(1, 12))
        ng = int(rng.integers(1, 16))
        d = int(rng.integers(2, 7))
        q = unit_rows(rng, nq, d)
        g = unit_rows(rng, ng, d)
        gt = rng.integers(0, ng, size=nq)
        dist = knn.pairwise_distances(q, g)
        ap = np.empty(nq)
        for i in range(nq):
            order = sorted(range(ng), key=lambda j: (dist[i, j], j))
            ap[i] = 1.0 / (order.index(int(gt[i])) + 1)
        assert metrics.retrieval_map(dist, gt) == ap.mean()
    print("criterion 8 PASS: fpr95 and retrieval mAP match their oracles on 100 inputs each")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_invariant_property_suite():
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def weights_sum_to_one(seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k + 1, 20))
        for tv in topology.batch_topology_vectors(unit_rows(rng, n, d), k):
            assert abs(float(tv.sum()) - 1.0) <= 1e-9

    def random_tv(rng, n, k):
        support = rng.choice(n, size=k, replace=False)
        g = rng.standard_normal(k)
        g = g + (1.0 - g.sum()) / k
        tv = np.zeros(n)
        tv[support] = g
        return tv

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def metric_axioms(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        k = int(rng.integers(1, min(n, 6) + 1))
        a, b, c = (random_tv(rng, n, k) for _ in range(3))
        dab = topology.topology_distance(a, b)
        assert dab >= 0.0
        assert dab == topology.topology_distance(b, a)
        assert topology.topology_distance(a, a) == 0.0
        dac = topology.topology_distance(a, c)
        dbc = topology.topology_distance(b, c)
        assert dac <= dab + dbc + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def affine_invariance(seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        anchor = rng.standard_normal(d)
        neighbors = rng.standard_normal((k, d))
        shift = rng.standard_normal(d) * 10.0
        scale = float(np.exp(rng.uniform(-2, 2)))
        base = fit_one(anchor, neighbors)
        moved = fit_one(scale * (anchor + shift), scale * (neighbors + shift))
        np.testing.assert_allclose(moved, base, atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def knn_permutation_equivariance(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 24))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        x = unit_rows(rng, n, d)
        perm = rng.permutation(n)
        base = knn.neighbor_index_matrix(x, k)
        shuffled = knn.neighbor_index_matrix(x[perm], k)
        for i in range(n):
            np.testing.assert_array_equal(perm[shuffled[i]], base[perm[i]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def descriptors_are_unit_norm(seed):
        rng = np.random.default_rng(seed)
        d_in = int(rng.integers(2, 10))
        d_out = int(rng.integers(2, 8))
        net = init_net((d_in, 12, d_out), rng)
        patches = rng.standard_normal((8, d_in))
        desc = embed(net, patches)
        np.testing.assert_allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-6)

    weights_sum_to_one()
    metric_axioms()
    affine_invariance()
    knn_permutation_equivariance()
    descriptors_are_unit_norm()
    print("criterion 9 PASS: five invariant properties hold over 100 cases each")
