"""Verification and retrieval quality measures over descriptor distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .knn import pairwise_distances


@dataclass(frozen=True)
class MetricReport:
    fpr95: float
    mAP: float
    n_pos: int
    n_neg: int


def fpr95(distances: np.ndarray, is_match: np.ndarray) -> float:
    """Fraction of non-matches at or below the 95%-recall distance threshold.

    distances[i] scores pair i and is_match[i] says whether it truly
    matches. The threshold is the smallest distance t such that at least 95%
    of the matching pairs satisfy d <= t; equal distances all count, on both
    sides of the comparison. Requires at least one match and one non-match.
    """
    distances = np.asarray(distances)
    is_match = np.asarray(is_match, dtype=bool)
    if distances.ndim != 1 or distances.shape != is_match.shape:
        raise InvalidInputError(
            f"need one flag per distance, got {distances.shape} and {is_match.shape}"
        )
    match = np.sort(distances[is_match])
    non = distances[~is_match]
    if match.size == 0 or non.size == 0:
        raise InvalidInputError(
            f"need both classes, got {match.size} matches and {non.size} non-matches"
        )
    # smallest m with m / n_pos >= 19/20, in exact integer arithmetic
    m = -((-19 * match.size) // 20)
    threshold = match[m - 1]
    return float(np.count_nonzero(non <= threshold)) / non.size


def retrieval_map(
    queries: np.ndarray, gallery: np.ndarray, ground_truth: np.ndarray
) -> float:
    """Mean of 1/rank of each query's single true gallery match.

    The gallery is ranked by ascending descriptor distance with ties broken
    toward the lower gallery index, so the true match's 1-based rank is one
    plus the count of strictly closer entries and of equally close entries
    at a lower index.
    """
    queries = np.asarray(queries)
    gallery = np.asarray(gallery)
    gt = np.asarray(ground_truth)
    if gt.ndim != 1 or gt.shape[0] != queries.shape[0]:
        raise InvalidInputError(
            f"need one ground-truth index per query, got {gt.shape} for {queries.shape[0]} queries"
        )
    if gt.size == 0:
        raise InvalidInputError("need at least one query")
    if gt.min() < 0 or gt.max() >= gallery.shape[0]:
        bad = int(np.flatnonzero((gt < 0) | (gt >= gallery.shape[0]))[0])
        raise InvalidInputError(
            f"query {bad} has ground-truth index {gt[bad]} outside the gallery"
        )
    dist = pairwise_distances(queries, gallery)
    d_gt = dist[np.arange(gt.size), gt][:, None]
    before = np.arange(gallery.shape[0]) < gt[:, None]
    rank = 1 + np.count_nonzero((dist < d_gt) | (before & (dist == d_gt)), axis=1)
    return float((1.0 / rank).mean())


def verification_pairs(
    desc_a: np.ndarray,
    desc_p: np.ndarray,
    negatives_per_positive: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Matched pairs by index plus seeded random non-matching pairs.

    For each index i the pair (a_i, p_i) is a match; negatives_per_positive
    draws of j != i give non-matching (a_i, p_j) pairs. Returns the pair
    distances and their match flags: first the n matches in index order,
    then each anchor's non-matches in draw order.
    """
    desc_a = np.asarray(desc_a)
    desc_p = np.asarray(desc_p)
    if desc_a.shape != desc_p.shape:
        raise InvalidInputError(
            f"descriptor sets must match, got {desc_a.shape} vs {desc_p.shape}"
        )
    n = desc_a.shape[0]
    if n < 2:
        raise InvalidInputError(f"need at least 2 pairs to draw non-matches, got {n}")
    if negatives_per_positive < 1:
        raise InvalidArgumentError(
            f"negatives_per_positive must be >= 1, got {negatives_per_positive}"
        )
    dist = pairwise_distances(desc_a, desc_p)
    rows = np.arange(n)[:, None]
    draws = rng.integers(0, n - 1, size=(n, negatives_per_positive))
    distances = np.concatenate([np.diag(dist), dist[rows, draws + (draws >= rows)].ravel()])
    return distances, np.arange(distances.size) < n


def evaluate_descriptors(
    desc_a: np.ndarray,
    desc_p: np.ndarray,
    negatives_per_positive: int,
    rng: np.random.Generator,
) -> MetricReport:
    """Bundle the verification and retrieval measures for one descriptor set.

    Retrieval uses each anchor descriptor as a query against the full
    positive-view gallery, with the same index as the single true match.
    """
    distances, is_match = verification_pairs(desc_a, desc_p, negatives_per_positive, rng)
    n_pos = int(np.count_nonzero(is_match))
    return MetricReport(
        fpr95=fpr95(distances, is_match),
        mAP=retrieval_map(desc_a, desc_p, np.arange(desc_a.shape[0])),
        n_pos=n_pos,
        n_neg=distances.size - n_pos,
    )
