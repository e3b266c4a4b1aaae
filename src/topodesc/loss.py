"""Triplet margin loss with hardest-in-batch negatives and a topology term.

The positive distance blends the Euclidean descriptor distance with a
neighborhood-structure distance under a batch-count schedule lambda; the
negative side is always plain Euclidean. Everything differentiable is built
on the autodiff tape so training and reporting share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import _rows, knn, topology
from .config import RunConfig
from .errors import InvalidArgumentError, InvalidBatchError

@dataclass(frozen=True)
class LossReport:
    """Per-batch scalars logged at every iteration.

    mean_d_pos_topo is 0.0 in "off" mode, and nan for a lambda == 1 training
    step that skipped the topology term (RunConfig.topology_report_every).
    """

    loss: float
    lam: float
    mean_d_pos_euclid: float
    mean_d_pos_topo: float
    mean_d_neg: float
    active_triplets: int


def lambda_schedule(iteration: int, cfg: RunConfig) -> float:
    """Piecewise-constant decay from 1.0 toward the floor.

    The blend stays at 1.0 for the first lambda_n0 iterations, then loses
    lambda_r for each further lambda_N iterations (rounded up), never going
    below lambda_floor. The step count is computed in exact integer
    arithmetic so schedule values are reproducible to the last bit.
    """
    if iteration < 0:
        raise InvalidArgumentError(f"iteration must be >= 0, got {iteration}")
    over = max(0, int(iteration) - int(cfg.lambda_n0))
    steps = -(-over // int(cfg.lambda_N))
    return max(1.0 - steps * cfg.lambda_r, cfg.lambda_floor)


def resolve_lambda(iteration: int, cfg: RunConfig) -> float:
    """The blend value of cfg.lambda_mode at this iteration; 1.0 when topology is off."""
    if cfg.topology_gradient_mode == "off":
        return 1.0
    if cfg.lambda_mode == "dynamic":
        return lambda_schedule(iteration, cfg)
    return cfg.fixed_lambda()


# Products closer than this to a line's largest may round to its smallest
# distance: equal distances need products within 1.2e-15 of each other.
_TIE_TOL = 1e-12


def _first_nearest(group: np.ndarray, other: np.ndarray, dist: np.ndarray, n: int):
    """For each group 0..n-1, the `other` index and distance of its nearest candidate.

    Ties break toward the lower `other` index. Every group has a candidate.
    """
    order = np.lexsort((other, dist, group))
    first = order[np.searchsorted(group[order], np.arange(n))]
    return other[first], dist[first]


def hardest_negatives(va: np.ndarray, vp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hardest in-batch negative pair (neg_u[i], neg_v[i]) for every anchor i.

    With d(i, j) = knn.pairwise_distances(va, vp)[i, j], anchor i's negative
    is the nearest pair (i, j) or (m, i) with j != i and m != i. Ties break
    toward the anchor's own row, then the lower index.

    Mining runs on the dot products, with the matched pairs at -inf: the
    distance never grows as the product grows, so each row's and column's
    nearest is among its products within _TIE_TOL of its largest (clamped to
    1, as the distance clips it; all of them once that reaches -1, where
    every product clips to distance 2). Only those candidates become
    distances, by the same elementwise conversion, so ties are ties of the
    computed distances. The scans for the maxima and for the candidates run
    in row ranges across the CPUs (``_rows``); the product stays whole.
    """
    g = knn.unit_product(va, vp)
    n = g.shape[0]
    if n < 2:
        raise InvalidBatchError(f"need a batch of >= 2 to mine negatives, got {n}")
    np.fill_diagonal(g, -np.inf)
    lowest = np.finfo(g.dtype).min  # below every product, above the masked diagonal
    t_row = np.empty(n)

    def maxima(lo, hi):
        t_row[lo:hi] = g[lo:hi].max(axis=1)
        return g[lo:hi].max(axis=0)

    # a maximum does not depend on the order it is taken in: the ranges' column maxima merge exactly
    t_col = np.max(_rows.in_parts(n, maxima), axis=0)
    t_row = np.minimum(t_row, 1.0) - _TIE_TOL
    t_col = np.minimum(t_col, 1.0) - _TIE_TOL
    t_row[t_row <= -1.0] = lowest
    t_col[t_col <= -1.0] = lowest

    def scan(lo, hi):
        mask = g[lo:hi] >= t_row[lo:hi, None]
        mask |= g[lo:hi] >= t_col
        return np.flatnonzero(mask) + lo * n

    flat = np.concatenate(_rows.in_parts(n, scan))
    i, j = np.divmod(flat, n)
    product = g.ravel()[flat]
    in_row = product >= t_row[i]
    in_col = product >= t_col[j]
    dist = knn.to_distance(product)
    row_j, row_d = _first_nearest(i[in_row], j[in_row], dist[in_row], n)
    col_m, col_d = _first_nearest(j[in_col], i[in_col], dist[in_col], n)
    rows = np.arange(n)
    use_row = row_d <= col_d
    return np.where(use_row, rows, col_m), np.where(use_row, row_j, rows)


@dataclass
class LossStructure:
    """Discrete selections frozen before the differentiable pass.

    Holds the neighbor index matrices for both views, the mined negative
    pair per anchor, and the padded bool support-union gather tensors used
    to compare the two views' weights without indexing inside the graph.
    frozen_wa / frozen_wp, when set, are the fitted affine weights of the two
    views as constants: the graph uses them in place of the affine solve, so
    no gradient flows through the fit. select_structure sets them in
    "detached" mode.
    """

    n: int
    k: int
    neg_u: np.ndarray
    neg_v: np.ndarray
    idx_a: np.ndarray | None = None
    idx_p: np.ndarray | None = None
    gather_a: np.ndarray | None = None
    gather_p: np.ndarray | None = None
    frozen_wa: np.ndarray | None = None
    frozen_wp: np.ndarray | None = None


def _union_gathers(idx_a: np.ndarray, idx_p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bool selection tensors mapping weight vectors onto each anchor's support union.

    Row m of gather_a[i] is the indicator of which neighbor slot of anchor i
    lands at union position m; unions shorter than 2k are padded with the
    out-of-range index n, whose indicator row is all zero on both sides.
    A product with weights reads them as 0/1 in the weights' dtype, and each
    row holds at most one 1, so it selects each weight exactly.
    """
    rows, k = idx_a.shape
    gather_a, gather_p = np.empty((2, rows, 2 * k, k), dtype=bool)

    def gather(lo, hi):
        a, p = idx_a[lo:hi], idx_p[lo:hi]
        both = np.sort(np.concatenate([a, p], axis=1), axis=1)
        # Each repeat becomes the pad index n; a second sort moves pads to the end.
        both[:, 1:][both[:, 1:] == both[:, :-1]] = n
        unions = np.sort(both, axis=1)[:, :, None]
        gather_a[lo:hi] = unions == a[:, None, :]
        gather_p[lo:hi] = unions == p[:, None, :]

    _rows.in_parts(rows, gather)
    return gather_a, gather_p


def select_structure(va: np.ndarray, vp: np.ndarray, cfg: RunConfig) -> LossStructure:
    """Run the discrete parts of the loss: kNN supports and negative mining.

    These selections are treated as constant during differentiation; the
    backward pass only sees the arithmetic conditioned on them. In "detached"
    mode the affine weights are fitted here as well and frozen with them.
    """
    va = np.asarray(va)
    vp = np.asarray(vp)
    if va.shape != vp.shape:
        raise InvalidBatchError(f"descriptor sets must match, got {va.shape} vs {vp.shape}")
    n = va.shape[0]
    neg_u, neg_v = hardest_negatives(va, vp)
    st = LossStructure(n=n, k=cfg.k, neg_u=neg_u, neg_v=neg_v)
    if cfg.topology_gradient_mode != "off":
        if not cfg.k <= n - 1:
            raise InvalidBatchError(f"k={cfg.k} needs a batch of at least {cfg.k + 1}, got {n}")
        st.idx_a = knn.neighbor_index_matrix(va, cfg.k)
        st.idx_p = knn.neighbor_index_matrix(vp, cfg.k)
        st.gather_a, st.gather_p = _union_gathers(st.idx_a, st.idx_p, n)
        if cfg.topology_gradient_mode == "detached":
            st.frozen_wa = topology.affine_weight_values(va, st.idx_a)
            st.frozen_wp = topology.affine_weight_values(vp, st.idx_p)
    return st


# The fused nodes of the objective. Each backward runs the numpy ops of the
# op-by-op composition it replaces (tests/recorded_loss.py), in that
# composition's sweep order, so every gradient is bitwise the same. Kinks:
# a.b at or beyond -1 or 1 passes no gradient, nor does a distance of 0; |x|
# has subgradient 0 at x = 0; the hinge passes gradient only where it is > 0.


def _pair_distances(desc_a: ad.Tensor, desc_p: ad.Tensor, neg_u, neg_v, tape: ad.Tape) -> ad.Tensor:
    """(2, n): row 0 the matched pairs' distances, row 1 the mined pairs' (neg_u[i], neg_v[i]).

    Each is knn.to_distance of the two rows' dot product.
    """
    va, vp = desc_a.value, desc_p.value
    neg_a, neg_p = va[neg_u], vp[neg_v]
    dots = np.stack(((va * vp).sum(axis=1), (neg_a * neg_p).sum(axis=1)))
    dist = knn.to_distance(dots.copy())

    def back(g):
        # through the sqrt, 2 - 2 a.b and the clip
        g_rad = np.where(dist > 0, 0.5 * g / np.where(dist > 0, dist, 1.0), 0.0)
        g_dots = (-g_rad * 2.0 * ((dots > -1.0) & (dots < 1.0)))[:, :, None]
        desc_p._accumulate(ad.scatter_rows(neg_v, g_dots[1] * neg_a, vp.shape))
        desc_a._accumulate(ad.scatter_rows(neg_u, g_dots[1] * neg_p, va.shape))
        desc_a._accumulate(g_dots[0] * vp)
        desc_p._accumulate(g_dots[0] * va)

    return ad.node(tape, dist, (desc_a, desc_p), back)


def _topology_distance(
    weights_a: ad.Tensor, weights_p: ad.Tensor, gather_a: np.ndarray, gather_p: np.ndarray, tape: ad.Tape
) -> ad.Tensor:
    """d_T per anchor: a quarter of the l1 distance between the weights on the support union.

    The bool indicators (LossStructure.gather_a/gather_p) place each view's
    weights at their union positions.
    """
    n, k = weights_a.value.shape
    diff = gather_a @ weights_a.value.reshape((n, k, 1)) - gather_p @ weights_p.value.reshape((n, k, 1))
    quarter = np.asarray(0.25, dtype=diff.dtype)

    def back(g):
        g_diff = np.broadcast_to((g * quarter)[:, None, None], diff.shape) * np.sign(diff)
        weights_p._accumulate((gather_p.swapaxes(-1, -2) @ -g_diff).reshape((n, k)))
        weights_a._accumulate((gather_a.swapaxes(-1, -2) @ g_diff).reshape((n, k)))

    return ad.node(tape, quarter * np.abs(diff).sum(axis=(1, 2)), (weights_a, weights_p), back)


def _hinge_mean(
    pairs: ad.Tensor, d_topo: ad.Tensor | None, lam: float, margin: float, tape: ad.Tape
) -> tuple[ad.Tensor, np.ndarray]:
    """The batch objective mean(max(0, margin + gamma - d_neg)) and the hinge per anchor.

    gamma is lam * d_pos + (1 - lam) * d_topo, or d_pos when d_topo is None.
    """
    d_pos, d_neg = pairs.value
    dtype = d_pos.dtype
    lam_c, lam_rest = np.asarray(lam, dtype=dtype), np.asarray(1.0 - lam, dtype=dtype)
    gamma = d_pos if d_topo is None else lam_c * d_pos + lam_rest * d_topo.value
    gap = np.asarray(margin, dtype=dtype) + (gamma - d_neg)
    hinge = np.maximum(gap, 0.0)
    inv_n = np.asarray(1.0 / len(hinge), dtype=dtype)

    def back(g):
        g_gap = np.broadcast_to(g * inv_n, gap.shape) * (gap > 0)
        pairs._accumulate(np.stack((g_gap if d_topo is None else g_gap * lam_c, -g_gap)))
        if d_topo is not None:
            d_topo._accumulate(g_gap * lam_rest)

    parents = (pairs,) if d_topo is None else (pairs, d_topo)
    return ad.node(tape, inv_n * hinge.sum(), parents, back), hinge


@dataclass
class LossGraph:
    """The batch objective and the per-pair tensors it is built from.

    d_pos is the Euclidean distance of each matched pair, a constant (the
    objective reads it from the pair node), and d_topo its topology
    distance; d_topo and the two views' affine weights are None in "off"
    mode, and constants unless the mode is "through-weights" and lambda < 1.
    """

    loss: ad.Tensor
    report: LossReport
    d_pos: ad.Tensor
    d_topo: ad.Tensor | None = None
    weights_a: ad.Tensor | None = None
    weights_p: ad.Tensor | None = None


def build_loss_graph(
    desc_a: ad.Tensor,
    desc_p: ad.Tensor,
    lam: float,
    cfg: RunConfig,
    structure: LossStructure,
    tape: ad.Tape,
) -> LossGraph:
    """Assemble the full batch objective on the tape, as three fused nodes and the fits.

    mean over i of max(0, margin + blended positive distance - hardest
    negative distance). With topology_gradient_mode "off" the positive side
    is purely Euclidean. Frozen weights in the structure ("detached" mode)
    enter as constants, as fitted values do at lambda == 1, where d_T's
    weight is 0; otherwise the affine fit is recorded on the tape, after the
    pair distances and before d_T.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError(f"lambda must be in [0, 1], got {lam}")
    pairs = _pair_distances(desc_a, desc_p, structure.neg_u, structure.neg_v, tape)

    weights_a = weights_p = d_topo = None
    if cfg.topology_gradient_mode != "off":
        if structure.frozen_wa is not None:
            weights_a = ad.constant(tape, structure.frozen_wa)
            weights_p = ad.constant(tape, structure.frozen_wp)
        elif lam == 1.0:
            # d_T is weighted by 1 - lam = 0, so its adjoint is exact zeros
            weights_a = ad.constant(tape, topology.affine_weight_values(desc_a.value, structure.idx_a))
            weights_p = ad.constant(tape, topology.affine_weight_values(desc_p.value, structure.idx_p))
        else:
            weights_a = topology.affine_weights(desc_a, structure.idx_a)
            weights_p = topology.affine_weights(desc_p, structure.idx_p)
        d_topo = _topology_distance(weights_a, weights_p, structure.gather_a, structure.gather_p, tape)
    loss, hinge = _hinge_mean(pairs, d_topo, lam, cfg.margin, tape)

    d_pos, d_neg = pairs.value
    report = LossReport(
        loss=float(loss.value),
        lam=float(lam),
        mean_d_pos_euclid=float(d_pos.mean()),
        mean_d_pos_topo=0.0 if d_topo is None else float(d_topo.value.mean()),
        mean_d_neg=float(d_neg.mean()),
        active_triplets=int(np.count_nonzero(hinge > 0)),
    )
    return LossGraph(
        loss=loss,
        report=report,
        d_pos=ad.constant(tape, d_pos),
        d_topo=d_topo,
        weights_a=weights_a,
        weights_p=weights_p,
    )


def value_graph(
    va: np.ndarray, vp: np.ndarray, lam: float, cfg: RunConfig, structure: LossStructure
) -> LossGraph:
    """build_loss_graph on fixed descriptor arrays, entered as constants: values only.

    Nothing is recorded, so the graph's tensors carry no gradient.
    """
    tape = ad.Tape()
    return build_loss_graph(ad.constant(tape, va), ad.constant(tape, vp), lam, cfg, structure, tape)


def batch_loss(
    va: np.ndarray,
    vp: np.ndarray,
    iteration: int,
    cfg: RunConfig,
) -> LossReport:
    """Loss and diagnostics for fixed descriptor arrays (no training state).

    lambda is the one training uses at iteration (resolve_lambda), and the
    affine weights are fitted with topology.EPS. Nothing is
    differentiated, so "through-weights" and "detached" report the same loss.
    """
    lam = resolve_lambda(iteration, cfg)
    return value_graph(va, vp, lam, cfg, select_structure(va, vp, cfg)).report
