"""Central finite-difference verification of the tape gradients.

The discrete structure of the loss (neighbor supports, mined negatives,
and, in detached mode, the fitted weights themselves) is frozen at the base
point, so the difference quotient probes exactly the function the tape
differentiates rather than a function with moving selections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import loss as lossmod
from . import net as netmod
from .config import RunConfig
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-coordinate comparison of analytic vs numeric gradients.

    The relative error is |analytic - numeric| / max(1, |analytic|,
    |numeric|); worst_parameter names the coordinate, e.g. "layer0.weight[3,2]".
    """

    max_relative_error: float
    worst_parameter: str
    step_size: float


def _frozen_loss(net, patches_a, patches_p, lam, cfg, structure) -> float:
    tape = ad.Tape()
    leaves = netmod.make_leaves(net, tape, trainable=False)
    da = netmod.forward(net, patches_a, tape, leaves)
    dp = netmod.forward(net, patches_p, tape, leaves)
    graph = lossmod.build_loss_graph(da, dp, lam, cfg, structure, tape)
    return float(graph.loss.value)


def grad_check(
    net: netmod.EmbeddingNet,
    patches_a: np.ndarray,
    patches_p: np.ndarray,
    cfg: RunConfig,
    lam: float,
    step: float = 1e-5,
    max_params: int = 1000,
    seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients of the batch loss against central differences.

    Runs in double precision regardless of the incoming net dtype. Above
    max_params parameters, a seeded random subset of coordinates is probed.
    """
    if not 0.0 < step < np.inf:
        raise InvalidArgumentError(f"step must be positive and finite, got {step!r}")
    net = netmod.cast_net(net, np.float64)
    patches_a = np.asarray(patches_a, dtype=np.float64)
    patches_p = np.asarray(patches_p, dtype=np.float64)

    tape = ad.Tape()
    leaves = netmod.make_leaves(net, tape)
    da = netmod.forward(net, patches_a, tape, leaves)
    dp = netmod.forward(net, patches_p, tape, leaves)
    structure = lossmod.select_structure(da.value, dp.value, cfg)
    graph = lossmod.build_loss_graph(da, dp, lam, cfg, structure, tape)
    ad.backward(tape, graph.loss)
    analytic = {
        name: t.grad if t.grad is not None else np.zeros_like(t.value)
        for name, t in leaves.items()
    }

    arrays = netmod.parameters(net)
    coords = [
        (name, idx)
        for name in sorted(arrays)
        for idx in np.ndindex(arrays[name].shape)
    ]
    if len(coords) > max_params:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(coords), size=max_params, replace=False)
        coords = [coords[int(i)] for i in picks]

    worst_err = 0.0
    worst_name = "none"
    for name, idx in coords:
        arr = arrays[name]
        orig = arr[idx]
        arr[idx] = orig + step
        f_plus = _frozen_loss(net, patches_a, patches_p, lam, cfg, structure)
        arr[idx] = orig - step
        f_minus = _frozen_loss(net, patches_a, patches_p, lam, cfg, structure)
        arr[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic[name][idx])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if err > worst_err:
            worst_err = err
            worst_name = f"{name}[{','.join(str(i) for i in idx)}]"
    return GradCheckReport(
        max_relative_error=worst_err, worst_parameter=worst_name, step_size=step
    )
