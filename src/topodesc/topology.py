"""Locally linear topology vectors and the l1 topology distance.

Each descriptor is fitted as the best affine (sum-to-one) combination of its
k nearest neighbors. Its topology vector is the dense length-n row that holds
the fitted weights at the neighbors' batch positions and zeros elsewhere, and
the topology distance d_T is a quarter of the l1 distance between two such
rows.

``affine_weights`` is the only implementation of the fit: one autodiff node
from the descriptors and their kNN indices to the weights, whose backward is
the closed form of the LLE weights' derivative. Training records it on the
tape; ``fit_weights`` (a batch of one), ``batch_topology_vectors`` and
``affine_weight_values`` run it on constants. The d_T that training uses is
the loss graph's (``loss.build_loss_graph``); ``batch_topology_vectors`` and
``topology_distance`` spell out the definition on dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import knn
from .errors import DegenerateFitError, InvalidInputError

# Trace-relative Tikhonov term used when a caller does not pick its own.
DEFAULT_EPS = 1e-3

# Fits whose normalizer 1' S^-1 1 is smaller than this are rejected.
NORMALIZER_FLOOR = 1e-300


@dataclass(frozen=True)
class LleWeights:
    """Affine-fit weights of one anchor over its k neighbors.

    Weights sum to one but are not sign-constrained; negative entries are
    legal and meaningful downstream.
    """

    weights: np.ndarray
    residual: float


def affine_weights(x: ad.Tensor, idx: np.ndarray, eps: float = DEFAULT_EPS) -> ad.Tensor:
    """Best affine combination of each anchor's k neighbors, as one tape node.

    x is (m, dim) and idx (n, k) with n <= m: anchor i is x[i] and its
    neighbors are the rows x[idx[i]]. Per anchor this minimizes
    ||x_i - sum_j w_j x_idx[i, j]||^2 subject to sum_j w_j = 1 through the
    closed form w = y / (1' y) with y = M^-1 1, where S is the bitwise
    symmetric Gram matrix of the differences D_j = x_i - x_idx[i, j] and
    M = S + eps * trace(S) / k * I, or S + eps * I where trace(S) == 0. The
    trace-relative term keeps the conditioning scale-free. S and M are
    formed in x's dtype and factored in double precision.

    The backward pass is the closed form of the LLE weights' derivative
    (Roweis & Saul, Science 2000) and reuses M's Cholesky factors. For the
    adjoint g of w: gy = (g - (g.w) 1) / 1'y, gb = M^-1 gy,
    grad_M = -gb y', grad_S = grad_M + (eps / k) trace(grad_M) I where
    trace(S) != 0, and grad_D = (grad_S + grad_S') D. Anchor i receives
    sum_j grad_D_j and neighbor idx[i, j] receives -grad_D_j.

    With eps == 0 each system is first tried plain; a system whose Cholesky
    factorization fails is solved with DEFAULT_EPS instead, and only that
    system. A system that still fails raises SingularSystemError; a
    vanishing normalizer raises DegenerateFitError.
    """
    if eps < 0.0:
        raise InvalidInputError(f"eps must be >= 0, got {eps}")
    idx = np.asarray(idx)
    n, k = idx.shape
    dtype = x.value.dtype
    d = x.value[:n, None, :] - x.value[idx]
    m = ad.mirrored_gram(d)
    eps_per_system = np.full(n, eps)
    if eps == 0.0:
        eps_per_system[ad.cholesky_failures(np.asarray(m, dtype=np.float64))] = DEFAULT_EPS
    diag = np.arange(k)
    trace = m[:, diag, diag].sum(axis=-1)
    nonzero = trace != 0
    coef = (eps_per_system / k).astype(dtype)
    m[:, diag, diag] += np.where(nonzero, trace * coef, eps_per_system.astype(dtype))[:, None]
    lower = ad.cholesky_factor(m)
    y64 = ad.cho_solve(lower, np.ones((n, k)))
    y = y64.astype(dtype, copy=False)
    ysum = y.sum(axis=1, keepdims=True)
    denom = ysum.ravel()
    bad = ~np.isfinite(denom) | (np.abs(denom) < NORMALIZER_FLOOR)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DegenerateFitError(f"weight normalizer 1'S^-1'1 = {denom[i]} for anchor {i}")
    w = y / ysum

    def back(g):
        g = np.asarray(g, dtype=np.float64)
        gb = ad.cho_solve(lower, (g - (g * w).sum(axis=1, keepdims=True)) / ysum)
        grad_s = -gb[:, :, None] * y64[:, None, :]
        grad_s[:, diag, diag] += (grad_s[:, diag, diag].sum(axis=1) * coef * nonzero)[:, None]
        grad_d = (grad_s + grad_s.swapaxes(-1, -2)) @ d
        grad_x = -ad.scatter_rows(idx, grad_d, x.value.shape)
        grad_x[:n] += grad_d.sum(axis=1)
        x._accumulate(grad_x)

    return ad.node(x.tape, w, (x,), back)


def affine_weight_values(x: np.ndarray, idx: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Value-only affine weights (n, k) of every row of x over its rows idx."""
    return affine_weights(ad.constant(ad.Tape(), x), idx, eps).value


def fit_weights(anchor: np.ndarray, neighbors: np.ndarray, eps: float = DEFAULT_EPS) -> LleWeights:
    """Affine fit of one anchor over its k neighbors, in double precision.

    A batch of one for affine_weights, which documents the fit: the anchor
    is row 0 and its neighbors rows 1..k.
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if neighbors.ndim != 2 or anchor.ndim != 1 or neighbors.shape[1] != anchor.shape[0]:
        raise InvalidInputError(
            f"anchor of dim {anchor.shape} does not match neighbors {neighbors.shape}"
        )
    k = neighbors.shape[0]
    if k < 1:
        raise InvalidInputError("at least one neighbor is required")
    if not np.isfinite(anchor).all() or not np.isfinite(neighbors).all():
        raise InvalidInputError("fit input contains non-finite entries")

    x = np.concatenate([anchor[None], neighbors])
    w = affine_weight_values(x, np.arange(1, k + 1)[None], eps)[0]
    residual = float(np.linalg.norm(anchor - w @ neighbors))
    return LleWeights(weights=w, residual=residual)


def topology_distance(ta: np.ndarray, tp: np.ndarray) -> float | np.ndarray:
    """Quarter of the l1 distance between topology vectors, along the last axis.

    Two length-n rows give one value; two (m, n) matrices give one value per
    row.
    """
    ta = np.asarray(ta)
    tp = np.asarray(tp)
    if ta.shape != tp.shape:
        raise InvalidInputError(f"topology vector shapes differ: {ta.shape} vs {tp.shape}")
    return 0.25 * np.abs(ta - tp).sum(axis=-1)


def batch_topology_vectors(x: np.ndarray, k: int, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(n, n) topology vectors of every descriptor within one set, from one batched fit.

    Row i holds anchor i's fitted weights at its k nearest neighbors'
    positions and zeros elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = knn.neighbor_index_matrix(x, k)
    t = np.zeros((x.shape[0], x.shape[0]))
    np.put_along_axis(t, idx, affine_weight_values(x, idx, eps), axis=1)
    return t
