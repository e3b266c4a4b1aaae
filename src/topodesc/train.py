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


def resolve_lambda(iteration: int, cfg: RunConfig) -> float:
    """The blend value of cfg.lambda_mode at this iteration; 1.0 when topology is off."""
    if cfg.topology_gradient_mode == "off":
        return 1.0
    if cfg.lambda_mode == "dynamic":
        return lossmod.lambda_schedule(iteration, cfg)
    return cfg.fixed_lambda()


def training_split(cfg: RunConfig, dataset: datamod.DatasetFile) -> datamod.DatasetFile:
    """The dataset's training split, once cfg fits it.

    Rejects the net input width, batch size and k the first step would fail
    on, with that step's messages, so a run that cannot start writes nothing.
    """
    if cfg.net_widths[0] != dataset.dim:
        raise InvalidArgumentError(f"net input width {cfg.net_widths[0]} != dataset dim {dataset.dim}")
    train_ds, _ = datamod.split_train_heldout(dataset)
    n_train = train_ds.scene_count
    if cfg.batch_size > n_train:
        raise InvalidArgumentError(f"batch_size must be in [1, {n_train}], got {cfg.batch_size}")
    if cfg.k >= cfg.batch_size:
        raise InvalidArgumentError(f"k must be in [1, n-1] = [1, {cfg.batch_size - 1}], got {cfg.k}")
    return train_ds


def run_training(cfg: RunConfig, dataset: datamod.DatasetFile | None = None) -> TrainResult:
    """Train a fresh net on the training split of the dataset.

    Fully deterministic for a fixed cfg: initialization and batch sampling
    use independent child seeds of cfg.seed. Raises
    TrainingDivergenceError the first time descriptors or the loss stop
    being finite.
    """
    if dataset is None:
        dataset = datamod.read_dataset(cfg.dataset)
    train_ds = training_split(cfg, dataset)
    init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    net = netmod.init_net(cfg.net_widths, np.random.default_rng(init_seed), dtype=cfg.dtype())
    sample_rng = np.random.default_rng(sample_seed)
    state = None
    rows: list[lossmod.LossReport] = []

    for i in range(cfg.iterations):
        _, batch_a, batch_p = datamod.sample_batch(train_ds, cfg.batch_size, sample_rng)
        lam = resolve_lambda(i, cfg)
        tape = ad.Tape()
        try:
            leaves = netmod.make_leaves(net, tape)
            desc_a = netmod.forward(net, batch_a, tape, leaves)
            desc_p = netmod.forward(net, batch_p, tape, leaves)
            structure = lossmod.select_structure(desc_a.value, desc_p.value, cfg)
            graph = lossmod.build_loss_graph(desc_a, desc_p, lam, cfg, structure, tape)
        except (DegenerateDescriptorError, DegenerateFitError, SingularSystemError) as exc:
            raise TrainingDivergenceError(str(exc), i - 1) from exc
        if not np.isfinite(graph.loss.value):
            raise TrainingDivergenceError(f"loss is {float(graph.loss.value)!r}", i - 1)
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
