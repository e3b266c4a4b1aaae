"""Small fully connected embedding network with unit-norm outputs."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DatasetFormatError, DegenerateDescriptorError, InvalidInputError

CHECKPOINT_MAGIC = b"TCD1"


@dataclass
class EmbeddingNet:
    """Layer widths and per-layer weights (out, in) and biases.

    Hidden layers use tanh; the final layer is linear and its output is
    L2-normalized row-wise, so descriptors always live on the unit sphere.
    """

    widths: tuple[int, ...]
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    @property
    def activations(self) -> tuple[str, ...]:
        """One tag per layer: tanh for the hidden layers, linear for the last."""
        return ("tanh",) * (len(self.weights) - 1) + ("linear",)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def dtype(self):
        return self.weights[0].dtype


def init_net(widths, rng: np.random.Generator, dtype=np.float64) -> EmbeddingNet:
    """Create a network with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise InvalidInputError(f"need at least two positive layer widths, got {widths}")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype))
        biases.append(rng.uniform(-bound, bound, size=fan_out).astype(dtype))
    return EmbeddingNet(widths=widths, weights=weights, biases=biases)


def parameters(net: EmbeddingNet) -> dict[str, np.ndarray]:
    """The net's own weight and bias arrays, in layer order.

    Names are "layer{i}.weight" and "layer{i}.bias"; the arrays are the
    net's, not copies, so writing to them updates the net.
    """
    params: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        params[f"layer{i}.weight"] = w
        params[f"layer{i}.bias"] = b
    return params


def make_leaves(net: EmbeddingNet, tape: ad.Tape, trainable: bool = True) -> dict[str, ad.Tensor]:
    """One graph node per parameter array, shared across forward calls."""
    mk = ad.leaf if trainable else ad.constant
    return {name: mk(tape, p) for name, p in parameters(net).items()}


def forward(
    net: EmbeddingNet,
    patches: np.ndarray,
    tape: ad.Tape,
    leaves: dict[str, ad.Tensor],
) -> ad.Tensor:
    """Build the (n, output_dim) descriptor graph for a batch of patch vectors.

    `leaves` are the parameter nodes from make_leaves; passing the same ones
    to both calls of a step shares the parameters between the anchor and
    positive branches.

    Raises DegenerateDescriptorError if any pre-normalization row is zero or
    non-finite, since such a row cannot be placed on the unit sphere.
    """
    patches = np.asarray(patches)
    if patches.ndim != 2 or patches.shape[1] != net.input_dim:
        raise InvalidInputError(
            f"expected patches of shape (n, {net.input_dim}), got {patches.shape}"
        )
    if not np.all(np.isfinite(patches)):
        raise InvalidInputError("patches contain non-finite values")
    x = ad.constant(tape, patches.astype(net.dtype, copy=False))
    for i, tag in enumerate(net.activations):
        w = leaves[f"layer{i}.weight"]
        b = leaves[f"layer{i}.bias"]
        x = ad.add(ad.matmul(x, ad.transpose(w)), b)
        if tag == "tanh":
            x = ad.tanh_(x)
    sq = ad.sum_(ad.mul(x, x), axis=1, keepdims=True)
    pre = sq.value
    if not np.all(np.isfinite(pre)):
        bad = int(np.flatnonzero(~np.isfinite(pre.ravel()))[0])
        raise DegenerateDescriptorError(f"non-finite descriptor at row {bad}")
    if np.any(pre == 0):
        bad = int(np.flatnonzero(pre.ravel() == 0)[0])
        raise DegenerateDescriptorError(f"zero-norm descriptor at row {bad}")
    return ad.div(x, ad.sqrt_(sq))


def embed(net: EmbeddingNet, patches: np.ndarray) -> np.ndarray:
    """Plain forward pass: unit-norm descriptors as a numpy array."""
    tape = ad.Tape()
    return forward(net, patches, tape, make_leaves(net, tape, trainable=False)).value


def sgd_step(
    net: EmbeddingNet,
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
    state: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """In-place SGD with classical momentum; L2 decay is folded into the gradient.

    v <- momentum * v + (g + weight_decay * p); p <- p - lr * v. Returns the
    velocity state; pass it back in on the next call.
    """
    params = parameters(net)
    if state is None:
        state = {name: np.zeros_like(p) for name, p in params.items()}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise InvalidInputError(f"gradient shape {g.shape} != parameter {p.shape} for {name}")
        v = state[name]
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v
    return state


def save_checkpoint(net: EmbeddingNet, path: str) -> None:
    """Write magic, layer widths, then per-layer row-major weights and biases.

    All reals are stored as little-endian float64 regardless of the net dtype.
    """
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", len(net.widths))
    blob += struct.pack(f"<{len(net.widths)}I", *net.widths)
    for w, b in zip(net.weights, net.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.asarray(b, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path: str, dtype=np.float64) -> EmbeddingNet:
    """Read a checkpoint, validating magic, widths, and exact payload length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise DatasetFormatError(f"checkpoint truncated at offset {len(blob)}: header needs 8 bytes")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DatasetFormatError(f"bad checkpoint magic {blob[:4]!r} at offset 0")
    (count,) = struct.unpack_from("<I", blob, 4)
    if count < 2:
        raise DatasetFormatError(f"checkpoint declares {count} layer widths at offset 4, need >= 2")
    need = 8 + 4 * count
    if len(blob) < need:
        raise DatasetFormatError(f"checkpoint truncated at offset {len(blob)}: widths need {need} bytes")
    widths = struct.unpack_from(f"<{count}I", blob, 8)
    if any(w < 1 for w in widths):
        raise DatasetFormatError("checkpoint has zero layer width at offset 8")
    offset = need
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        wbytes = 8 * fan_in * fan_out
        bbytes = 8 * fan_out
        if len(blob) < offset + wbytes + bbytes:
            raise DatasetFormatError(
                f"checkpoint truncated at offset {len(blob)}: layer needs {offset + wbytes + bbytes} bytes"
            )
        w = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=offset)
        weights.append(w.reshape(fan_out, fan_in).astype(dtype))
        offset += wbytes
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
        biases.append(b.astype(dtype))
        offset += bbytes
    if offset != len(blob):
        raise DatasetFormatError(f"unexpected trailing bytes at offset {offset}")
    bad = ~np.isfinite(np.frombuffer(blob, dtype="<f8", offset=need))
    if bad.any():
        raise DatasetFormatError(f"non-finite parameter at offset {need + 8 * int(np.argmax(bad))}")
    return EmbeddingNet(widths=tuple(widths), weights=weights, biases=biases)


def cast_net(net: EmbeddingNet, dtype) -> EmbeddingNet:
    return EmbeddingNet(
        widths=net.widths,
        weights=[w.astype(dtype) for w in net.weights],
        biases=[b.astype(dtype) for b in net.biases],
    )
