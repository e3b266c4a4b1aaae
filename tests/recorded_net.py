"""The embedding net's forward pass recorded op by op, and the ops only it uses.

net.forward records one autodiff.dense node per layer and one
autodiff.normalize_rows node. This composition records the ops those nodes
replace: transpose, matmul, add and tanh per layer, then mul, sum, sqrt and
div. Its values and gradients are the oracle that the fused nodes change no
bit.
"""

import numpy as np

from topodesc import autodiff as ad
from topodesc.errors import DegenerateDescriptorError

from recorded_loss import add, matmul, mul, sqrt_, sum_


def div(a, b):
    value = a.value / b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(-g * value / b.value, b.value.shape))

    return ad.node(a.tape or b.tape, value, (a, b), back)


def transpose(a):
    value = a.value.swapaxes(-1, -2)

    def back(g):
        a._accumulate(g.swapaxes(-1, -2))

    return ad.node(a.tape, value, (a,), back)


def tanh_(a):
    value = np.tanh(a.value)

    def back(g):
        a._accumulate(g * (1.0 - value * value))

    return ad.node(a.tape, value, (a,), back)


def recorded_forward(net, patches, tape, leaves):
    """net.forward's descriptors, recorded op by op."""
    x = ad.constant(tape, np.asarray(patches).astype(net.dtype, copy=False))
    for i, tag in enumerate(net.activations):
        w = leaves[f"layer{i}.weight"]
        b = leaves[f"layer{i}.bias"]
        x = add(matmul(x, transpose(w)), b)
        if tag == "tanh":
            x = tanh_(x)
    sq = sum_(mul(x, x), axis=1, keepdims=True)
    if np.any(sq.value == 0) or not np.all(np.isfinite(sq.value)):
        raise DegenerateDescriptorError("zero-norm or non-finite descriptor")
    return div(x, sqrt_(sq))

