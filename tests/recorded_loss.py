"""The loss head recorded op by op, and the generic tape ops it is built from.

loss.build_loss_graph records three fused nodes: the pair distances, d_T
and the hinge mean. recorded_loss_graph records the ops those nodes
replace, one node each, so its values and gradients are the oracle that
the fused nodes change no bit. Kink conventions of the ops: |x| has
subgradient 0 at x = 0, max(x, 0) passes gradient only where x > 0, sqrt
passes gradient only where its argument is positive, and clip passes
gradient strictly inside the interval.

With fit_always, both views' affine fits and the d_T chain are recorded at
every lambda, and the support-union indicators enter as 0/1 arrays in the
descriptors' dtype. build_loss_graph keeps the fits off the tape at
lambda = 1, where d_T's weight 1 - lambda is an exact 0, and reads the
indicators as bool: this is the oracle that neither shortcut changes a bit.
"""

from functools import partial

import numpy as np

from topodesc import autodiff as ad
from topodesc import loss as L
from topodesc import topology


def add(a, b):
    value = a.value + b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(g, b.value.shape))

    return ad.node(a.tape or b.tape, value, (a, b), back)


def sub(a, b):
    value = a.value - b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(-g, b.value.shape))

    return ad.node(a.tape or b.tape, value, (a, b), back)


def mul(a, b):
    value = a.value * b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(g * a.value, b.value.shape))

    return ad.node(a.tape or b.tape, value, (a, b), back)


def matmul(a, b):
    value = a.value @ b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g @ b.value.swapaxes(-1, -2), a.value.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(a.value.swapaxes(-1, -2) @ g, b.value.shape))

    return ad.node(a.tape or b.tape, value, (a, b), back)


def reshape(a, shape: tuple[int, ...]):
    value = a.value.reshape(shape)

    def back(g):
        a._accumulate(g.reshape(a.value.shape))

    return ad.node(a.tape, value, (a,), back)


def sum_(a, axis=None, keepdims: bool = False):
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.value.shape))

    return ad.node(a.tape, value, (a,), back)


def abs_(a):
    value = np.abs(a.value)

    def back(g):
        a._accumulate(g * np.sign(a.value))

    return ad.node(a.tape, value, (a,), back)


def sqrt_(a):
    value = np.sqrt(a.value)

    def back(g):
        safe = np.where(a.value > 0, value, 1.0)
        a._accumulate(np.where(a.value > 0, 0.5 * g / safe, 0.0))

    return ad.node(a.tape, value, (a,), back)


def relu(a):
    value = np.maximum(a.value, 0.0)

    def back(g):
        a._accumulate(g * (a.value > 0))

    return ad.node(a.tape, value, (a,), back)


def clip(a, lo: float, hi: float):
    value = np.clip(a.value, lo, hi)

    def back(g):
        a._accumulate(g * ((a.value > lo) & (a.value < hi)))

    return ad.node(a.tape, value, (a,), back)


def take(a, indices):
    """Row gather a[indices]; backward scatter-adds into the source (autodiff.scatter_rows)."""
    idx = np.asarray(indices)
    value = a.value[idx]

    def back(g):
        if a.requires_grad:
            a._accumulate(ad.scatter_rows(idx, g, a.value.shape))

    return ad.node(a.tape, value, (a,), back)


def row_euclidean(a, b, tape):
    """Unit-descriptor distance per row: sqrt(2 - 2 a.b), with a.b clipped to [-1, 1]."""
    dots = clip(sum_(mul(a, b), axis=1), -1.0, 1.0)
    two = ad.constant(tape, np.asarray(2.0, dtype=a.value.dtype))
    return sqrt_(sub(two, mul(two, dots)))


def recorded_loss_graph(desc_a, desc_p, lam, cfg, structure, tape, fit_always=False):
    """build_loss_graph's objective, recorded op by op."""
    n = structure.n
    dtype = desc_a.value.dtype
    d_pos = row_euclidean(desc_a, desc_p, tape)
    neg_a = take(desc_a, structure.neg_u)
    neg_p = take(desc_p, structure.neg_v)
    d_neg = row_euclidean(neg_a, neg_p, tape)

    weights_a = weights_p = d_topo = None
    if cfg.topology_gradient_mode == "off":
        gamma_pos = d_pos
        topo_mean = 0.0
    else:
        gather_a, gather_p = structure.gather_a, structure.gather_p
        if fit_always:
            assert cfg.topology_gradient_mode == "through-weights"
            weights_a = topology.affine_weights(desc_a, structure.idx_a)
            weights_p = topology.affine_weights(desc_p, structure.idx_p)
            gather_a, gather_p = gather_a.astype(dtype), gather_p.astype(dtype)
        elif structure.frozen_wa is not None:
            weights_a = ad.constant(tape, structure.frozen_wa)
            weights_p = ad.constant(tape, structure.frozen_wp)
        elif lam == 1.0:
            weights_a = ad.constant(tape, topology.affine_weight_values(desc_a.value, structure.idx_a))
            weights_p = ad.constant(tape, topology.affine_weight_values(desc_p.value, structure.idx_p))
        else:
            weights_a = topology.affine_weights(desc_a, structure.idx_a)
            weights_p = topology.affine_weights(desc_p, structure.idx_p)
        ta = matmul(ad.constant(tape, gather_a), reshape(weights_a, (n, cfg.k, 1)))
        tp = matmul(ad.constant(tape, gather_p), reshape(weights_p, (n, cfg.k, 1)))
        l1 = sum_(abs_(sub(ta, tp)), axis=(1, 2))
        d_topo = mul(ad.constant(tape, np.asarray(0.25, dtype=dtype)), l1)
        topo_mean = float(d_topo.value.mean())
        lam_c = ad.constant(tape, np.asarray(lam, dtype=dtype))
        lam_rest = ad.constant(tape, np.asarray(1.0 - lam, dtype=dtype))
        gamma_pos = add(mul(lam_c, d_pos), mul(lam_rest, d_topo))

    margin = ad.constant(tape, np.asarray(cfg.margin, dtype=dtype))
    hinge = relu(add(margin, sub(gamma_pos, d_neg)))
    inv_n = ad.constant(tape, np.asarray(1.0 / n, dtype=dtype))
    loss = mul(inv_n, sum_(hinge))

    report = L.LossReport(
        loss=float(loss.value),
        lam=float(lam),
        mean_d_pos_euclid=float(d_pos.value.mean()),
        mean_d_pos_topo=topo_mean,
        mean_d_neg=float(d_neg.value.mean()),
        active_triplets=int(np.count_nonzero(hinge.value > 0)),
    )
    return L.LossGraph(
        loss=loss, report=report, d_pos=d_pos, d_topo=d_topo, weights_a=weights_a, weights_p=weights_p
    )


# both fits on the tape at every lambda, and float indicators
recorded_fit_loss_graph = partial(recorded_loss_graph, fit_always=True)
