"""One anchor's affine fit, run as a batch of one through the batched fit training runs."""

from unittest import mock

import numpy as np

from topodesc import topology


def fit_eps(value):
    """Context manager under which every affine fit uses value as its regulariser."""
    return mock.patch.object(topology, "EPS", value)


def fit_one(anchor, neighbors, eps=topology.EPS):
    """Weights (k,) of anchor over the k rows of neighbors, fitted under fit_eps(eps).

    The anchor is row 0 of the stacked input and its neighbors rows 1..k.
    """
    k = len(neighbors)
    x = np.vstack([anchor, neighbors])
    with fit_eps(eps):
        return topology.affine_weight_values(x, np.arange(1, k + 1)[None])[0]
