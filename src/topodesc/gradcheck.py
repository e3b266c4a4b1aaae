"""Central finite-difference verification of the gradients training computes.

The analytic gradients are train.run_step's: the loss head's tape sweep,
then the two views' net backwards, summed by the same code as in training.
The discrete structure of the loss (neighbor supports, mined negatives,
and, in detached mode, the fitted weights themselves) is frozen at the base
point, so the difference quotient probes exactly the function the step
differentiates rather than a function with moving selections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loss as lossmod
from . import net as netmod
from .config import RunConfig
from .errors import InvalidArgumentError
from .train import run_step


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
    da, dp = netmod.embed(net, patches_a), netmod.embed(net, patches_p)
    return float(lossmod.value_graph(da, dp, lam, cfg, structure).loss.value)


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
    A NaN error is the worst error. Raises FloatingPointError when the loss
    at the base point is not finite.
    """
    if not 0.0 < step < np.inf:
        raise InvalidArgumentError(f"step must be positive and finite, got {step!r}")
    if max_params < 1:
        raise InvalidArgumentError(f"max_params must be at least 1, got {max_params!r}")
    net = netmod.cast_net(net, np.float64)
    patches_a = np.asarray(patches_a, dtype=np.float64)
    patches_p = np.asarray(patches_p, dtype=np.float64)
    structure, _, analytic = run_step(net, patches_a, patches_p, lam, cfg)

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
        if not err <= worst_err:
            worst_err = err
            worst_name = f"{name}[{','.join(str(i) for i in idx)}]"
            if np.isnan(err):
                break
    return GradCheckReport(
        max_relative_error=worst_err, worst_parameter=worst_name, step_size=step
    )
