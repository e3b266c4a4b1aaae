"""The embedding net's forward pass recorded op by op, and the ops only it uses.

net.forward computes the descriptors and returns a backward that replays
this composition's sweep: transpose, matmul, add and tanh per layer, then
mul, sum, sqrt and div. Recorded on one tape, with one set of parameter
leaves shared by both views, its values and gradients are the oracle that
the net's own backward and the step's gradient sum change no bit.
"""

import numpy as np

from topodesc import autodiff as ad
from topodesc import loss as L
from topodesc import net as nm
from topodesc.errors import DegenerateDescriptorError

from recorded_loss import _unbroadcast, add, matmul, mul, sqrt_, sum_


def div(a, b):
    value = a.value / b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * value / b.value, b.value.shape))

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


def parameter_leaves(net, tape):
    """One trainable leaf per parameter array (net.parameters), by name."""
    return {name: ad.leaf(tape, p) for name, p in nm.parameters(net).items()}


def recorded_forward(net, patches, tape, leaves):
    """net.forward's descriptors, recorded op by op on the parameter leaves."""
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


def recorded_step(net, batch_a, batch_p, lam, cfg):
    """train.run_step on one tape: both views recorded op by op on shared leaves.

    Returns run_step's (structure, graph, gradients), the tape's node
    count and the two views' descriptors. The positive view is recorded last, so the sweep reaches its
    nodes first: each leaf copies its gradient, then adds the anchor's.
    """
    tape = ad.Tape()
    leaves = parameter_leaves(net, tape)
    desc_a = recorded_forward(net, batch_a, tape, leaves)
    desc_p = recorded_forward(net, batch_p, tape, leaves)
    structure = L.select_structure(desc_a.value, desc_p.value, cfg)
    graph = L.build_loss_graph(desc_a, desc_p, lam, cfg, structure, tape)
    nodes = len(tape.nodes)
    ad.backward(tape, graph.loss)
    grads = {name: t.grad for name, t in leaves.items()}
    return (structure, graph, grads), nodes, (desc_a.value, desc_p.value)


def swept_node_counts(monkeypatch):
    """The node count of every tape that autodiff.backward sweeps from now on, in order."""
    counts = []
    backward = ad.backward

    def counting(tape, *args, **kwargs):
        counts.append(len(tape.nodes))
        return backward(tape, *args, **kwargs)

    monkeypatch.setattr(ad, "backward", counting)
    return counts
