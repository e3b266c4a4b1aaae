"""The through-weights loss graph with the affine fit recorded at every lambda.

build_loss_graph keeps the fit off the tape at lambda = 1, where the topology
term's weight 1 - lambda is an exact 0. This composition records both fits
and the d_T chain at every lambda, so its backward sweep runs the fit's
backward on those zero adjoints: the oracle that the shortcut changes no bit.
It also multiplies the weights by the support-union indicators as 0/1
arrays in the descriptors' dtype, the oracle for the bool indicators that
build_loss_graph reads.
"""

import numpy as np

from topodesc import autodiff as ad
from topodesc import loss as L
from topodesc import topology


def recorded_fit_loss_graph(desc_a, desc_p, lam, cfg, structure, tape):
    """build_loss_graph's objective in "through-weights" mode, both fits on the tape."""
    assert cfg.topology_gradient_mode == "through-weights"
    n = structure.n
    dtype = desc_a.value.dtype
    d_pos = L._row_euclidean(desc_a, desc_p, tape)
    neg_a = ad.take(desc_a, structure.neg_u)
    neg_p = ad.take(desc_p, structure.neg_v)
    d_neg = L._row_euclidean(neg_a, neg_p, tape)

    weights_a = topology.affine_weights(desc_a, structure.idx_a)
    weights_p = topology.affine_weights(desc_p, structure.idx_p)
    gather_a = ad.constant(tape, structure.gather_a.astype(dtype))
    gather_p = ad.constant(tape, structure.gather_p.astype(dtype))
    ta = ad.matmul(gather_a, ad.reshape(weights_a, (n, cfg.k, 1)))
    tp = ad.matmul(gather_p, ad.reshape(weights_p, (n, cfg.k, 1)))
    l1 = ad.sum_(ad.abs_(ad.sub(ta, tp)), axis=(1, 2))
    d_topo = ad.mul(ad.constant(tape, np.asarray(0.25, dtype=dtype)), l1)
    lam_c = ad.constant(tape, np.asarray(lam, dtype=dtype))
    lam_rest = ad.constant(tape, np.asarray(1.0 - lam, dtype=dtype))
    gamma_pos = ad.add(ad.mul(lam_c, d_pos), ad.mul(lam_rest, d_topo))

    margin = ad.constant(tape, np.asarray(cfg.margin, dtype=dtype))
    hinge = ad.relu(ad.add(margin, ad.sub(gamma_pos, d_neg)))
    inv_n = ad.constant(tape, np.asarray(1.0 / n, dtype=dtype))
    loss = ad.mul(inv_n, ad.sum_(hinge))

    report = L.LossReport(
        loss=float(loss.value),
        lam=float(lam),
        mean_d_pos_euclid=float(d_pos.value.mean()),
        mean_d_pos_topo=float(d_topo.value.mean()),
        mean_d_neg=float(d_neg.value.mean()),
        active_triplets=int(np.count_nonzero(hinge.value > 0)),
    )
    return L.LossGraph(
        loss=loss, report=report, d_pos=d_pos, d_topo=d_topo, weights_a=weights_a, weights_p=weights_p
    )
