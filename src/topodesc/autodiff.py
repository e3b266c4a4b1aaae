"""Reverse-mode differentiation over numpy arrays with an explicit tape.

Nodes are appended to the tape in creation order, which is a valid
topological order, so the backward pass is a single deterministic reverse
sweep. One tape lives for one training step and is dropped afterwards.
A binary op computes a parent's gradient only when that parent is
trainable, so constants cost nothing in the backward sweep.

Kink conventions: |x| has subgradient 0 at x = 0, max(x, 0) passes gradient
only where x > 0, sqrt passes gradient only where its argument is positive,
and clip passes gradient strictly inside the interval.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import _rows
from .errors import DegenerateDescriptorError, SingularSystemError


class Tape:
    """Ordered record of differentiable operations for one step.

    Nodes recorded on tapes of their own can be joined onto this one as
    branches (join): the backward sweep runs the branches side by side.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.branches: list[tuple[int, int]] = []  # [start, stop) node ranges, in order
        self.branch_rows = 0

    def add(self, node: "Tensor") -> None:
        self.nodes.append(node)

    def join(self, rows: int, *tapes: "Tape") -> None:
        """Move each tape's nodes, in order, onto the end of this one, each as a branch.

        The branches must share no trainable tensor (give each its own
        leaves), so no two of them accumulate into one gradient. rows is
        the batch the branches compute; _rows.side_by_side decides from it
        whether backward sweeps them at once. A second join turns the
        branches of the first into plain nodes.
        """
        self.branch_rows, self.branches = rows, []
        for tape in tapes:
            start = len(self.nodes)
            for t in tape.nodes:
                t.tape = self
            self.nodes += tape.nodes
            tape.nodes.clear()
            self.branches.append((start, len(self.nodes)))


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


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def node(tape: Tape, value, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """The output of one op; recorded on the tape when a parent is trainable.

    backward_fn(g) receives the output's adjoint and accumulates each
    parent's share. Ops outside this module (topology.affine_weights) are
    built with it too.
    """
    out = Tensor(value, tape, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._backward = backward_fn
        tape.add(out)
    return out


def _sweep(nodes: list[Tensor]) -> None:
    for t in reversed(nodes):
        if t.grad is None or t._backward is None:
            continue
        t._backward(t.grad)


def backward(tape: Tape, root: Tensor | None = None, adjoint=1.0) -> None:
    """Reverse sweep seeding the root (default: last recorded node).

    `adjoint` may be a scalar or an array broadcastable to the root's shape,
    making the sweep a general vector-Jacobian product. An empty tape, or a
    root that nothing trainable feeds, is a no-op: every leaf keeps a zero
    (None) gradient.

    The nodes after the tape's branches are swept first, on this thread.
    The branches follow, side by side where _rows.side_by_side runs them at
    once, and the nodes before them last.
    """
    if not tape.nodes:
        return
    if root is None:
        root = tape.nodes[-1]
    if not root.requires_grad:
        return
    seed = np.asarray(adjoint, dtype=root.value.dtype)
    root._accumulate(seed)
    if not tape.branches:
        return _sweep(tape.nodes)
    first, last = tape.branches[0][0], tape.branches[-1][1]
    _sweep(tape.nodes[last:])
    _rows.side_by_side(
        tape.branch_rows, *[partial(_sweep, tape.nodes[lo:hi]) for lo, hi in reversed(tape.branches)]
    )
    _sweep(tape.nodes[:first])


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    value = a.value + b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.value.shape))

    return node(a.tape or b.tape, value, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    value = a.value - b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.value.shape))

    return node(a.tape or b.tape, value, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    value = a.value * b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.value, b.value.shape))

    return node(a.tape or b.tape, value, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    value = a.value @ b.value

    def back(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b.value.swapaxes(-1, -2), a.value.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.value.swapaxes(-1, -2) @ g, b.value.shape))

    return node(a.tape or b.tape, value, (a, b), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    value = a.value.reshape(shape)

    def back(g):
        a._accumulate(g.reshape(a.value.shape))

    return node(a.tape, value, (a,), back)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.value.shape))

    return node(a.tape, value, (a,), back)


def abs_(a: Tensor) -> Tensor:
    value = np.abs(a.value)

    def back(g):
        a._accumulate(g * np.sign(a.value))

    return node(a.tape, value, (a,), back)


def sqrt_(a: Tensor) -> Tensor:
    value = np.sqrt(a.value)

    def back(g):
        safe = np.where(a.value > 0, value, 1.0)
        a._accumulate(np.where(a.value > 0, 0.5 * g / safe, 0.0))

    return node(a.tape, value, (a,), back)


def relu(a: Tensor) -> Tensor:
    value = np.maximum(a.value, 0.0)

    def back(g):
        a._accumulate(g * (a.value > 0))

    return node(a.tape, value, (a,), back)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    value = np.clip(a.value, lo, hi)

    def back(g):
        a._accumulate(g * ((a.value > lo) & (a.value < hi)))

    return node(a.tape, value, (a,), back)


def take(a: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather a[indices]; backward scatter-adds into the source (scatter_rows)."""
    idx = np.asarray(indices)
    value = a.value[idx]

    def back(g):
        if a.requires_grad:
            a._accumulate(scatter_rows(idx, g, a.value.shape))

    return node(a.tape, value, (a,), back)


def scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of `shape` plus g[p] added at row idx[p], in double precision.

    g has shape idx.shape + shape[1:]. One bincount over flat (row, trailing
    slot) positions adds each position's terms in idx order.
    """
    rows, width = shape[0], math.prod(shape[1:])
    slots = (idx.reshape(-1, 1) % rows) * width + np.arange(width)
    return np.bincount(slots.ravel(), weights=g.reshape(-1), minlength=rows * width).reshape(shape)


# ---------------------------------------------------------------------------
# fused layers of the embedding net
#
# Each records one node where the op-by-op composition recorded several, and
# its backward runs that composition's numpy ops in the same order, so the
# gradients are bitwise the same.


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """x @ w^T + b, then tanh when activation is "tanh"; w is (out, in), b is (out,)."""
    value = x.value @ w.value.swapaxes(-1, -2) + b.value
    if activation == "tanh":
        value = np.tanh(value)

    def back(g):
        if activation == "tanh":
            g = g * (1.0 - value * value)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.value.shape))
        if x.requires_grad:
            x._accumulate(g @ w.value)
        if w.requires_grad:
            w._accumulate((x.value.swapaxes(-1, -2) @ g).swapaxes(-1, -2))

    return node(x.tape or w.tape, value, (x, w, b), back)


def normalize_rows(x: Tensor) -> Tensor:
    """Each row of x divided by its Euclidean norm.

    A row whose squared norm is zero or not finite raises
    DegenerateDescriptorError naming the first such row; nothing is divided.
    """
    sq = (x.value * x.value).sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(sq)):
        bad = int(np.flatnonzero(~np.isfinite(sq.ravel()))[0])
        raise DegenerateDescriptorError(f"non-finite descriptor at row {bad}")
    if np.any(sq == 0):
        bad = int(np.flatnonzero(sq.ravel() == 0)[0])
        raise DegenerateDescriptorError(f"zero-norm descriptor at row {bad}")
    norm = np.sqrt(sq)
    value = x.value / norm

    def back(g):
        # the quotient's two parents, then the norm's sqrt, sum and square x * x
        x._accumulate(g / norm)
        g_norm = _unbroadcast(-g * value / norm, norm.shape)
        g_sq = np.where(sq > 0, 0.5 * g_norm / np.where(sq > 0, norm, 1.0), 0.0)
        g_xx = np.broadcast_to(g_sq, x.value.shape)
        x._accumulate(g_xx * x.value)
        x._accumulate(g_xx * x.value)

    return node(x.tape, value, (x,), back)


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
