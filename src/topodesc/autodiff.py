"""Reverse-mode differentiation over numpy arrays with an explicit tape.

Nodes are appended to the tape in creation order, which is a valid
topological order, so the backward pass is a single deterministic reverse
sweep. One tape lives for one training step and is dropped afterwards.
An op whose parents are all constants records no node, so constants
cost nothing in the backward sweep.

A training step records the loss head only, on the two views'
descriptors as leaves: fused nodes, each built with node(), for the affine
fit in topology and the loss terms in loss, which states its kink
conventions. The embedding net computes its own backward (net.forward).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystemError


class Tape:
    """Ordered record of differentiable operations for one step."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def add(self, node: "Tensor") -> None:
        self.nodes.append(node)


class Tensor:
    """A value in the graph, with a gradient slot filled by the backward sweep."""

    __slots__ = ("value", "grad", "tape", "requires_grad", "_backward")

    def __init__(self, value, tape: Tape | None, requires_grad: bool):
        self.value = np.asarray(value)
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.requires_grad = requires_grad
        self._backward = None

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            if g.shape != self.value.shape:
                g = np.broadcast_to(g, self.value.shape)
            # an owned copy: g may be a view shared with another node's gradient
            self.grad = np.array(g, dtype=self.value.dtype)
        else:
            self.grad += g


def constant(tape: Tape, value) -> Tensor:
    return Tensor(value, tape, requires_grad=False)


def leaf(tape: Tape, value) -> Tensor:
    """A trainable input; its .grad is populated by backward()."""
    return Tensor(value, tape, requires_grad=True)


def node(tape: Tape, value, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """The output of one op; recorded on the tape when a parent is trainable.

    backward_fn(g) receives the output's adjoint and accumulates each
    parent's share. Ops outside this module (topology.affine_weights and
    the loss head in loss) are built with it too.
    """
    out = Tensor(value, tape, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._backward = backward_fn
        tape.add(out)
    return out


def backward(tape: Tape, root: Tensor | None = None, adjoint=1.0) -> None:
    """Reverse sweep seeding the root (default: last recorded node).

    `adjoint` may be a scalar or an array broadcastable to the root's shape,
    making the sweep a general vector-Jacobian product. An empty tape, or a
    root that nothing trainable feeds, is a no-op: every leaf keeps a zero
    (None) gradient.
    """
    if not tape.nodes:
        return
    if root is None:
        root = tape.nodes[-1]
    if not root.requires_grad:
        return
    root._accumulate(np.asarray(adjoint, dtype=root.value.dtype))
    for t in reversed(tape.nodes):
        if t.grad is not None and t._backward is not None:
            t._backward(t.grad)


def scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of `shape` plus g[p] added at row idx[p], in double precision.

    g has shape idx.shape + shape[1:]. One bincount over flat (row, trailing
    slot) positions adds each position's terms in idx order.
    """
    rows, width = shape[0], math.prod(shape[1:])
    slots = (idx.reshape(-1, 1) % rows) * width + np.arange(width)
    return np.bincount(slots.ravel(), weights=g.reshape(-1), minlength=rows * width).reshape(shape)


# ---------------------------------------------------------------------------
# batched linear algebra for the per-anchor affine fits
#
# The array helpers carry the math; the fused fit node
# (topology.affine_weights) and the two tape ops below all call them.


def gram(d: np.ndarray) -> np.ndarray:
    """S_i = D_i D_i^T for a stack of difference matrices (n, k, dim).

    Every S_i is bitwise symmetric: numpy forms a matrix's product with its
    own transpose by one symmetric rank-k update and copies one triangle
    onto the other.
    """
    return d @ d.swapaxes(-1, -2)


def cholesky_factor(m: np.ndarray, first: int = 0) -> np.ndarray:
    """Lower factors L_i of M_i = L_i L_i^T for a stack (n, k, k), in double precision.

    A system that is not positive definite raises SingularSystemError
    naming the first such anchor; the stack's first system is anchor `first`.
    Only then are the systems factored one by one, to find that anchor.
    """
    m64 = np.asarray(m, dtype=np.float64)
    try:
        return np.linalg.cholesky(m64)
    except np.linalg.LinAlgError:
        for i, system in enumerate(m64):
            try:
                np.linalg.cholesky(system)
            except np.linalg.LinAlgError:
                raise SingularSystemError(f"symmetric factorization failed for anchor {first + i}") from None
        raise


def cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for stacks (n, k, k) and (n, k) by substitution.

    Forward then back substitution, one column per step, each step
    vectorized over the whole stack. Both results are column-major, so
    each step writes one contiguous column.
    """
    k = b.shape[1]
    y = np.empty(b.shape, order="F")
    for j in range(k):
        y[:, j] = (b[:, j] - np.einsum("ni,ni->n", lower[:, j, :j], y[:, :j])) / lower[:, j, j]
    x = np.empty(b.shape, order="F")
    for j in range(k - 1, -1, -1):
        x[:, j] = (
            y[:, j] - np.einsum("ni,ni->n", lower[:, j + 1 :, j], x[:, j + 1 :])
        ) / lower[:, j, j]
    return x


def gram_batched(d: Tensor) -> Tensor:
    """Tape op for gram; the backward is (g + g^T) D."""
    value = gram(d.value)

    def back(g):
        d._accumulate((g + g.swapaxes(-1, -2)) @ d.value)

    return node(d.tape, value, (d,), back)


def solve_chol_batched(m: Tensor, rhs: np.ndarray) -> Tensor:
    """Solve M_i x_i = rhs for a stack of symmetric positive definite systems.

    One stacked Cholesky factorization runs in double precision regardless
    of the tape dtype, and the backward pass reuses the factors: with g the
    output adjoint, gb = M^-1 g gives grad_M = -gb x^T. The right-hand side
    is a fixed vector, not a graph node. A system that is not positive
    definite raises SingularSystemError naming the first such anchor.
    """
    lower = cholesky_factor(m.value)
    x64 = cho_solve(lower, np.broadcast_to(np.asarray(rhs, dtype=np.float64), lower.shape[:2]))
    value = x64.astype(m.value.dtype, copy=False)

    def back(g):
        gb = cho_solve(lower, np.asarray(g, dtype=np.float64))
        gm = -gb[:, :, None] * x64[:, None, :]
        m._accumulate(gm.astype(m.value.dtype, copy=False))

    return node(m.tape, value, (m,), back)
