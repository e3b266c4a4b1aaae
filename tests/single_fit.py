"""One anchor's affine fit, run as a batch of one through the batched fit training runs."""

import numpy as np

from topodesc import topology


def fit_one(anchor, neighbors, eps=topology.DEFAULT_EPS):
    """Weights (k,) of anchor over the k rows of neighbors.

    The anchor is row 0 of the stacked input and its neighbors rows 1..k.
    """
    k = len(neighbors)
    x = np.vstack([anchor, neighbors])
    return topology.affine_weight_values(x, np.arange(1, k + 1)[None], eps)[0]
