"""Locally linear topology vectors and the l1 topology distance.

Each descriptor is fitted as the best affine (sum-to-one) combination of its
k nearest neighbors. Its topology vector is the dense length-n row that holds
the fitted weights at the neighbors' batch positions and zeros elsewhere, and
the topology distance d_T is a quarter of the l1 distance between two such
rows.

``affine_weights`` is the only implementation of the fit: one autodiff node
from the descriptors and their kNN indices to the weights, whose backward is
the closed form of the LLE weights' derivative. Training records it on the
tape in "through-weights" mode while lambda < 1; ``affine_weight_values``
and ``batch_topology_vectors`` run it on constants, as every other step does.
Each anchor's system needs its own rows only, so the forward and the
backward's per-anchor part run in row ranges across the CPUs (``_rows``);
the scatter onto shared neighbor rows stays whole: its order fixes the bits.
The d_T that training uses is the loss graph's
(``loss.build_loss_graph``); ``batch_topology_vectors`` and
``topology_distance`` spell out the definition on dense rows.
"""

from __future__ import annotations

import numpy as np

from . import _rows, knn
from . import autodiff as ad
from .errors import DegenerateFitError, InvalidInputError

# Trace-relative Tikhonov term used when a caller does not pick its own.
DEFAULT_EPS = 1e-3

# Fits whose normalizer 1' S^-1 1 is smaller than this are rejected.
NORMALIZER_FLOOR = 1e-300


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
    diag = np.arange(k)
    d = np.empty((n, k, x.value.shape[1]), dtype=dtype)
    lower, y64 = np.empty((n, k, k)), np.empty((n, k), order="F")  # y64 as cho_solve lays it out
    eps_per_system = np.full(n, eps)
    nonzero, coef = np.empty(n, dtype=bool), np.empty(n, dtype=dtype)

    def fit(lo, hi):
        np.subtract(x.value[lo:hi, None, :], x.value[idx[lo:hi]], out=d[lo:hi])
        m = ad.mirrored_gram(d[lo:hi])
        eps_part = eps_per_system[lo:hi]
        if eps == 0.0:
            eps_part[ad.cholesky_failures(np.asarray(m, dtype=np.float64))] = DEFAULT_EPS
        trace = m[:, diag, diag].sum(axis=-1)
        nonzero[lo:hi] = trace != 0
        coef[lo:hi] = eps_part / k
        shift = np.where(nonzero[lo:hi], trace * coef[lo:hi], eps_part.astype(dtype))
        m[:, diag, diag] += shift[:, None]
        lower[lo:hi] = ad.cholesky_factor(m, first=lo)
        del m
        y64[lo:hi] = ad.cho_solve(lower[lo:hi], np.ones((hi - lo, k)))

    _rows.in_parts(n, fit)
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
        grad_d = np.empty(d.shape)

        def part(lo, hi):
            gp = g[lo:hi]
            rhs = (gp - (gp * w[lo:hi]).sum(axis=1, keepdims=True)) / ysum[lo:hi]
            gb = ad.cho_solve(lower[lo:hi], rhs)
            # C order keeps the matmul below on BLAS; gb and y64 are column-major
            grad_s = np.multiply(-gb[:, :, None], y64[lo:hi, None, :], order="C")
            trace_g = grad_s[:, diag, diag].sum(axis=1)
            grad_s[:, diag, diag] += (trace_g * coef[lo:hi] * nonzero[lo:hi])[:, None]
            np.matmul(grad_s + grad_s.swapaxes(-1, -2), d[lo:hi], out=grad_d[lo:hi])

        _rows.in_parts(n, part)
        grad_x = -ad.scatter_rows(idx, grad_d, x.value.shape)
        grad_x[:n] += grad_d.sum(axis=1)
        x._accumulate(grad_x)

    return ad.node(x.tape, w, (x,), back)


def affine_weight_values(x: np.ndarray, idx: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Value-only affine weights (n, k) of every row of x over its rows idx."""
    return affine_weights(ad.constant(ad.Tape(), x), idx, eps).value


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
