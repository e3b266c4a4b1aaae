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


def _row_euclidean(a: ad.Tensor, b: ad.Tensor, tape: ad.Tape) -> ad.Tensor:
    """Unit-descriptor distance per row: sqrt(2 - 2 a.b), with a.b clipped to [-1, 1].

    The clip makes 2 - 2 a.b exactly >= 0, and sqrt_ passes no gradient at 0.
    """
    dots = ad.clip(ad.sum_(ad.mul(a, b), axis=1), -1.0, 1.0)
    two = ad.constant(tape, np.asarray(2.0, dtype=a.value.dtype))
    return ad.sqrt_(ad.sub(two, ad.mul(two, dots)))


@dataclass
class LossGraph:
    """The batch objective and the per-pair tensors it is built from.

    d_pos is the Euclidean distance of each matched pair and d_topo its
    topology distance; d_topo and the two views' affine weights are None
    in "off" mode, and constants unless the mode is "through-weights" and lambda < 1.
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
    """Assemble the full batch objective on the tape.

    mean over i of max(0, margin + blended positive distance - hardest
    negative distance). With topology_gradient_mode "off" the positive side
    is purely Euclidean. Frozen weights in the structure ("detached" mode)
    enter as constants, as fitted values do at lambda == 1, where d_T's
    weight is 0; otherwise the affine fit is recorded on the tape.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError(f"lambda must be in [0, 1], got {lam}")
    n = structure.n
    dtype = desc_a.value.dtype
    d_pos = _row_euclidean(desc_a, desc_p, tape)
    neg_a = ad.take(desc_a, structure.neg_u)
    neg_p = ad.take(desc_p, structure.neg_v)
    d_neg = _row_euclidean(neg_a, neg_p, tape)

    weights_a = weights_p = d_topo = None
    if cfg.topology_gradient_mode == "off":
        gamma_pos = d_pos
        topo_mean = 0.0
    else:
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
        ta = ad.matmul(ad.constant(tape, structure.gather_a), ad.reshape(weights_a, (n, cfg.k, 1)))
        tp = ad.matmul(ad.constant(tape, structure.gather_p), ad.reshape(weights_p, (n, cfg.k, 1)))
        l1 = ad.sum_(ad.abs_(ad.sub(ta, tp)), axis=(1, 2))
        quarter = ad.constant(tape, np.asarray(0.25, dtype=dtype))
        d_topo = ad.mul(quarter, l1)
        topo_mean = float(d_topo.value.mean())
        lam_c = ad.constant(tape, np.asarray(lam, dtype=dtype))
        lam_rest = ad.constant(tape, np.asarray(1.0 - lam, dtype=dtype))
        gamma_pos = ad.add(ad.mul(lam_c, d_pos), ad.mul(lam_rest, d_topo))

    margin = ad.constant(tape, np.asarray(cfg.margin, dtype=dtype))
    hinge = ad.relu(ad.add(margin, ad.sub(gamma_pos, d_neg)))
    inv_n = ad.constant(tape, np.asarray(1.0 / n, dtype=dtype))
    loss = ad.mul(inv_n, ad.sum_(hinge))

    report = LossReport(
        loss=float(loss.value),
        lam=float(lam),
        mean_d_pos_euclid=float(d_pos.value.mean()),
        mean_d_pos_topo=topo_mean,
        mean_d_neg=float(d_neg.value.mean()),
        active_triplets=int(np.count_nonzero(hinge.value > 0)),
    )
    return LossGraph(
        loss=loss, report=report, d_pos=d_pos, d_topo=d_topo, weights_a=weights_a, weights_p=weights_p
    )


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
    structure = select_structure(va, vp, cfg)
    tape = ad.Tape()
    graph = build_loss_graph(
        ad.constant(tape, va), ad.constant(tape, vp), lam, cfg, structure, tape
    )
    return graph.report
