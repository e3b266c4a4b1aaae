"""Deterministic training loop: sample, forward, loss graph, backward, step."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import loss as lossmod
from . import net as netmod
from .config import RunConfig
from .errors import (
    DegenerateDescriptorError,
    DegenerateFitError,
    InvalidArgumentError,
    SingularSystemError,
)

MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4

LOG_HEADER = (
    "iteration",
    "lambda",
    "loss",
    "mean_d_pos_euclid",
    "mean_d_pos_topo",
    "mean_d_neg",
    "active_triplets",
)


class TrainingDivergenceError(Exception):
    """Raised when an iteration produces non-finite state; carries the last
    iteration that completed cleanly (-1 if none did)."""

    def __init__(self, message: str, last_good_iteration: int):
        super().__init__(message)
        self.last_good_iteration = last_good_iteration


@dataclass
class TrainResult:
    net: netmod.EmbeddingNet
    rows: list[lossmod.LossReport]


def learning_rate(iteration: int, cfg: RunConfig) -> float:
    """Linear decay from lr_start toward lr_end across the run."""
    frac = iteration / cfg.iterations
    return cfg.lr_start + (cfg.lr_end - cfg.lr_start) * frac


def resolve_lambda(iteration: int, cfg: RunConfig, lambda_mode: str) -> float:
    """Map the --lambda-mode string to a blend value for this iteration."""
    if cfg.topology_gradient_mode == "off":
        return 1.0
    if lambda_mode == "dynamic":
        return lossmod.lambda_schedule(iteration, cfg.loss_config())
    if lambda_mode.startswith("fixed:"):
        value = float(lambda_mode.split(":", 1)[1])
        if not 0.0 <= value <= 1.0:
            raise InvalidArgumentError(f"fixed lambda must be in [0, 1], got {value}")
        return value
    raise InvalidArgumentError(
        f"lambda_mode must be 'dynamic' or 'fixed:<value>', got {lambda_mode!r}"
    )


def run_training(
    cfg: RunConfig,
    dataset: datamod.DatasetFile | None = None,
    lambda_mode: str = "dynamic",
) -> TrainResult:
    """Train a fresh net on the training split of the dataset.

    Fully deterministic for a fixed (cfg, lambda_mode): initialization and
    batch sampling use independent child seeds of cfg.seed. Raises
    TrainingDivergenceError the first time descriptors or the loss stop
    being finite.
    """
    if dataset is None:
        dataset = datamod.read_dataset(cfg.dataset)
    train_ds, _ = datamod.split_train_heldout(dataset)
    if cfg.net_widths[0] != dataset.dim:
        raise InvalidArgumentError(
            f"net input width {cfg.net_widths[0]} != dataset dim {dataset.dim}"
        )
    init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    net = netmod.init_net(cfg.net_widths, np.random.default_rng(init_seed), dtype=cfg.dtype())
    sample_rng = np.random.default_rng(sample_seed)
    loss_cfg = cfg.loss_config()
    state = None
    rows: list[lossmod.LossReport] = []

    for i in range(cfg.iterations):
        _, batch_a, batch_p = datamod.sample_batch(train_ds, cfg.batch_size, sample_rng)
        lam = resolve_lambda(i, cfg, lambda_mode)
        tape = ad.Tape()
        try:
            leaves = netmod.make_leaves(net, tape)
            desc_a, _ = netmod.forward(net, batch_a, tape, leaves)
            desc_p, _ = netmod.forward(net, batch_p, tape, leaves)
            structure = lossmod.select_structure(desc_a.value, desc_p.value, loss_cfg)
            graph = lossmod.build_loss_graph(desc_a, desc_p, lam, loss_cfg, structure, tape)
        except (DegenerateDescriptorError, DegenerateFitError, SingularSystemError) as exc:
            raise TrainingDivergenceError(str(exc), i - 1) from exc
        if not np.isfinite(graph.loss.value):
            raise TrainingDivergenceError(f"loss is {graph.loss.value!r}", i - 1)
        ad.backward(tape, graph.loss)
        grads = {name: t.grad for name, t in leaves.items() if t.grad is not None}
        state = netmod.sgd_step(
            net, grads, learning_rate(i, cfg), MOMENTUM, WEIGHT_DECAY, state
        )
        # Tensor.tape and Tape.nodes form a cycle; break it so the step's graph is freed now.
        tape.nodes.clear()
        rows.append(graph.report)
    return TrainResult(net=net, rows=rows)


def write_log(rows: list[lossmod.LossReport], path: str) -> None:
    """One CSV row per iteration, column order fixed by LOG_HEADER."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        for i, r in enumerate(rows):
            writer.writerow(
                [
                    i,
                    repr(r.lam),
                    repr(r.loss),
                    repr(r.mean_d_pos_euclid),
                    repr(r.mean_d_pos_topo),
                    repr(r.mean_d_neg),
                    r.active_triplets,
                ]
            )


def read_log(path: str) -> list[dict]:
    """Parse a training log back into per-iteration dicts of floats."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {key: float(value) for key, value in row.items()} for row in reader
        ]
