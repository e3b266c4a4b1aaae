"""Verification FPR measure and retrieval ranking quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodesc import metrics
from topodesc.errors import InvalidArgumentError, InvalidInputError
from topodesc.knn import pairwise_distances


def labeled(matches, nons):
    """(distances, is_match) arrays: the matches first, then the non-matches."""
    distances = np.concatenate([np.asarray(matches, float), np.asarray(nons, float)])
    return distances, np.arange(distances.size) < len(matches)


def sweep_oracle(matches, nons):
    """Smallest threshold reaching 95% recall, then count covered non-matches."""
    matches = sorted(matches)
    n = len(matches)
    for t in matches:
        covered = sum(1 for d in matches if d <= t)
        if covered * 20 >= 19 * n:
            return sum(1 for d in nons if d <= t) / len(nons)
    raise AssertionError("unreachable: the largest match always reaches full recall")


class TestFpr95:
    def test_separated_classes(self):
        assert metrics.fpr95(*labeled([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])) == 0.0

    def test_fully_overlapping_classes(self):
        assert metrics.fpr95(*labeled([0.5] * 10, [0.5] * 7)) == 1.0

    def test_single_straggler_match_is_ignored_at_large_n(self):
        # 100 matches: the threshold sits at the 95th smallest, so 5
        # non-matches below the straggler but above it stay uncounted
        matches = [0.1] * 99 + [10.0]
        nons = [5.0] * 4 + [20.0]
        assert metrics.fpr95(*labeled(matches, nons)) == 0.0

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_pos = int(rng.integers(1, 60))
            n_neg = int(rng.integers(1, 60))
            matches = rng.uniform(0, 2, size=n_pos).tolist()
            nons = rng.uniform(0, 2, size=n_neg).tolist()
            assert metrics.fpr95(*labeled(matches, nons)) == sweep_oracle(matches, nons)

    def test_ties_count_on_both_sides(self):
        # threshold lands exactly on a shared value: equal non-matches count
        assert metrics.fpr95(*labeled([1.0, 1.0, 1.0], [1.0, 2.0])) == 0.5

    def test_adding_far_non_matches_lowers_the_rate(self):
        base = labeled([0.1, 0.2], [0.15])
        more = labeled([0.1, 0.2], [0.15, 100.0, 101.0, 102.0])
        assert metrics.fpr95(*more) < metrics.fpr95(*base)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        matches = rng.uniform(0, 2, size=40)
        nons = rng.uniform(0, 2, size=55)
        before = metrics.fpr95(*labeled(matches, nons))
        after = metrics.fpr95(*labeled(np.exp(matches), np.exp(nons)))
        assert before == after

    def test_requires_both_classes(self):
        with pytest.raises(InvalidInputError):
            metrics.fpr95(*labeled([0.1, 0.2], []))
        with pytest.raises(InvalidInputError):
            metrics.fpr95(*labeled([], [0.1, 0.2]))
        with pytest.raises(InvalidInputError, match="one flag per distance"):
            metrics.fpr95(np.array([0.1, 0.2]), np.array([True]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0, 4, allow_nan=False), min_size=1, max_size=30),
        st.lists(st.floats(0, 4, allow_nan=False), min_size=1, max_size=30),
    )
    def test_oracle_property(self, matches, nons):
        assert metrics.fpr95(*labeled(matches, nons)) == sweep_oracle(matches, nons)


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def argsort_map_oracle(queries, gallery, gt):
    """mAP from each query's stable argsort of the gallery distances."""
    dist = pairwise_distances(queries, gallery)
    ap = np.empty(gt.shape[0])
    for i in range(gt.shape[0]):
        order = np.argsort(dist[i], kind="stable")
        ap[i] = 1.0 / (int(np.flatnonzero(order == gt[i])[0]) + 1)
    return float(ap.mean())


def per_row_pairs_oracle(desc_a, desc_p, negatives_per_positive, rng):
    """Verification pairs with one draw of non-matches per anchor row."""
    dist = pairwise_distances(desc_a, desc_p)
    n = dist.shape[0]
    distances = [dist[i, i] for i in range(n)]
    for i in range(n):
        draws = rng.integers(0, n - 1, size=negatives_per_positive)
        draws = draws + (draws >= i)
        distances.extend(dist[i, int(j)] for j in draws)
    return np.array(distances), np.arange(len(distances)) < n


def map_oracle(queries, gallery, gt):
    dist = pairwise_distances(queries, gallery)
    total = 0.0
    for i in range(queries.shape[0]):
        order = sorted(range(gallery.shape[0]), key=lambda j: (dist[i, j], j))
        total += 1.0 / (order.index(int(gt[i])) + 1)
    return total / queries.shape[0]


class TestRetrievalMap:
    def test_perfect_ranking(self):
        rng = np.random.default_rng(2)
        g = unit_rows(rng, 12, 6)
        assert metrics.retrieval_map(pairwise_distances(g, g), np.arange(12)) == 1.0

    def test_true_match_at_rank_two(self):
        q = np.array([[1.0, 0.0]])
        gallery = np.array([[1.0, 0.0], [np.cos(0.1), np.sin(0.1)]])
        assert metrics.retrieval_map(pairwise_distances(q, gallery), np.array([1])) == 0.5

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = unit_rows(rng, 9, 5)
            g = unit_rows(rng, 14, 5)
            gt = rng.integers(0, 14, size=9)
            got = metrics.retrieval_map(pairwise_distances(q, g), gt)
            assert got == pytest.approx(map_oracle(q, g, gt), abs=1e-15)
            assert got == argsort_map_oracle(q, g, gt)

    def test_tie_run_matches_argsort_oracle(self):
        # 100 of 1,024 gallery rows are copies of one row, so every query
        # sees a run of 100 equal distances broken only by gallery index
        rng = np.random.default_rng(12)
        g = unit_rows(rng, 1024, 8)
        ties = np.sort(rng.choice(1024, size=100, replace=False))
        g[ties] = g[ties[0]]
        q = unit_rows(rng, 64, 8)
        q[:32] = g[ties[0]]
        gt = np.concatenate([rng.choice(ties, size=48), rng.integers(0, 1024, size=16)])
        dist = pairwise_distances(q, g)
        assert all(np.unique(dist[i, ties]).size == 1 for i in range(64))
        got = metrics.retrieval_map(dist, gt)
        assert got == argsort_map_oracle(q, g, gt)
        assert got < 0.5  # the ranks inside the run really differ

    def test_gallery_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        q = unit_rows(rng, 8, 5)
        g = unit_rows(rng, 10, 5)
        gt = rng.integers(0, 10, size=8)
        base = metrics.retrieval_map(pairwise_distances(q, g), gt)
        perm = rng.permutation(10)
        inv = np.argsort(perm)
        assert metrics.retrieval_map(pairwise_distances(q, g[perm]), inv[gt]) == pytest.approx(base, abs=1e-15)

    def test_ground_truth_validation(self):
        rng = np.random.default_rng(5)
        q = unit_rows(rng, 3, 4)
        g = unit_rows(rng, 5, 4)
        with pytest.raises(InvalidInputError, match="outside the gallery"):
            metrics.retrieval_map(pairwise_distances(q, g), np.array([0, 1, 5]))
        with pytest.raises(InvalidInputError):
            metrics.retrieval_map(pairwise_distances(q, g), np.array([0, 1]))
        with pytest.raises(InvalidInputError):
            metrics.retrieval_map(pairwise_distances(np.empty((0, 4)), g), np.array([], dtype=int))


class TestVerificationPairs:
    def test_counts(self):
        rng = np.random.default_rng(6)
        a = unit_rows(rng, 10, 4)
        p = unit_rows(rng, 10, 4)
        distances, is_match = metrics.verification_pairs(pairwise_distances(a, p), 1, np.random.default_rng(0))
        assert np.count_nonzero(is_match) == 10
        assert np.count_nonzero(~is_match) == 10
        distances, is_match = metrics.verification_pairs(pairwise_distances(a, p), 3, np.random.default_rng(0))
        assert np.count_nonzero(~is_match) == 30
        assert distances.shape == is_match.shape == (40,)

    def test_deterministic_for_fixed_rng(self):
        rng = np.random.default_rng(7)
        a = unit_rows(rng, 12, 4)
        p = unit_rows(rng, 12, 4)
        d1, m1 = metrics.verification_pairs(pairwise_distances(a, p), 2, np.random.default_rng(3))
        d2, m2 = metrics.verification_pairs(pairwise_distances(a, p), 2, np.random.default_rng(3))
        assert np.array_equal(d1, d2) and np.array_equal(m1, m2)

    def test_matches_use_aligned_indices(self):
        rng = np.random.default_rng(8)
        a = unit_rows(rng, 6, 4)
        distances, is_match = metrics.verification_pairs(pairwise_distances(a, a.copy()), 2, np.random.default_rng(1))
        for d, match in zip(distances, is_match):
            if match:
                assert d == pytest.approx(0.0, abs=3e-8)
            else:
                assert d > 1e-3

    @pytest.mark.parametrize("negatives_per_positive", [1, 2, 3, 7, 10])
    def test_matches_per_row_draw_oracle(self, negatives_per_positive):
        rng = np.random.default_rng(13)
        a = unit_rows(rng, 257, 6)
        p = unit_rows(rng, 257, 6)
        got = metrics.verification_pairs(pairwise_distances(a, p), negatives_per_positive, np.random.default_rng(4))
        want = per_row_pairs_oracle(a, p, negatives_per_positive, np.random.default_rng(4))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_validation(self):
        rng = np.random.default_rng(9)
        a = unit_rows(rng, 4, 4)
        with pytest.raises(InvalidInputError):
            metrics.verification_pairs(pairwise_distances(a, a[:3]), 1, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            metrics.verification_pairs(pairwise_distances(a[:1], a[:1]), 1, np.random.default_rng(0))
        with pytest.raises(InvalidArgumentError):
            metrics.verification_pairs(pairwise_distances(a, a), 0, np.random.default_rng(0))

    def test_draws_past_the_address_space_are_an_argument_error(self):
        # numpy rejects this size before allocating anything
        a = unit_rows(np.random.default_rng(9), 4, 4)
        with pytest.raises(InvalidArgumentError) as info:
            metrics.verification_pairs(pairwise_distances(a, a), 2**61, np.random.default_rng(0))
        assert str(info.value) == (
            f"negatives_per_positive {2**61} asks for {4 * 2**61} non-matching pairs "
            "over 4 pairs, more than memory holds"
        )

    def test_draws_that_cannot_be_allocated_are_an_argument_error(self):
        class NoMemory:
            def integers(self, *args, **kwargs):
                raise MemoryError("Unable to allocate")

        a = unit_rows(np.random.default_rng(9), 4, 4)
        with pytest.raises(InvalidArgumentError, match="negatives_per_positive 1000 asks for 4000"):
            metrics.verification_pairs(pairwise_distances(a, a), 1000, NoMemory())


class TestEvaluateDescriptors:
    def test_identical_views_are_perfect(self):
        rng = np.random.default_rng(10)
        a = unit_rows(rng, 20, 6)
        report = metrics.evaluate_descriptors(a, a.copy(), 5, np.random.default_rng(0))
        assert report.fpr95 == 0.0
        assert report.mAP == 1.0
        assert report.n_pos == 20
        assert report.n_neg == 100

    def test_report_consistent_with_parts(self):
        rng = np.random.default_rng(11)
        a = unit_rows(rng, 15, 5)
        p = unit_rows(rng, 15, 5)
        report = metrics.evaluate_descriptors(a, p, 4, np.random.default_rng(9))
        pairs = metrics.verification_pairs(pairwise_distances(a, p), 4, np.random.default_rng(9))
        assert report.fpr95 == metrics.fpr95(*pairs)
        assert report.mAP == metrics.retrieval_map(pairwise_distances(a, p), np.arange(15))
