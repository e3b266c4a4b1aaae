"""Deterministic training loop: sample, forward, loss graph, backward, step."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _rows
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


def training_split(cfg: RunConfig, dataset: datamod.DatasetFile) -> datamod.DatasetFile:
    """The dataset's training split, once cfg fits it.

    Rejects the net input width, batch size and k the first step would fail
    on, so a run that cannot start writes nothing.
    """
    if cfg.net_widths[0] != dataset.dim:
        raise InvalidArgumentError(f"net input width {cfg.net_widths[0]} != dataset dim {dataset.dim}")
    train_ds, _ = datamod.split_train_heldout(dataset)
    n_train = train_ds.scene_count
    if n_train < 2:
        raise InvalidArgumentError(f"a batch needs 2 scenes, but the training split has {n_train}")
    if cfg.batch_size > n_train:
        raise InvalidArgumentError(f"batch_size must be in [2, {n_train}], got {cfg.batch_size}")
    if cfg.k >= cfg.batch_size:
        raise InvalidArgumentError(f"k must be in [1, n-1] = [1, {cfg.batch_size - 1}], got {cfg.k}")
    return train_ds


# The positive view's net pass runs on a worker thread. perfbench's tracer
# replaces netmod.forward with a wrapper whose one span stack only the
# calling thread may touch, so the worker calls the function bound here.
_untraced_forward = netmod.forward


def _view(net: netmod.EmbeddingNet, patches: np.ndarray, forward):
    """One view's net pass on a tape and leaves of its own: (tape, leaves, descriptors)."""
    tape = ad.Tape()
    leaves = netmod.make_leaves(net, tape)
    return tape, leaves, forward(net, patches, tape, leaves)


def _summed_grads(leaves_a: dict, leaves_p: dict) -> dict:
    """Each parameter's gradient over both views, summed as one shared leaf would sum it.

    A shared leaf's backward sweep reaches the positive view's nodes first,
    since they were recorded last: it copies their gradient, then adds the
    anchor view's. Every leaf has a gradient, since the loss reads both views.
    """
    return {name: leaf.grad + leaves_a[name].grad for name, leaf in leaves_p.items()}


def run_training(cfg: RunConfig, dataset: datamod.DatasetFile) -> TrainResult:
    """Train a fresh net on the training split of the dataset.

    Fully deterministic for a fixed cfg: initialization and batch sampling
    use independent child seeds of cfg.seed. Raises
    TrainingDivergenceError the first time descriptors or the loss stop
    being finite.

    A lambda == 1 step whose iteration is not a multiple of
    cfg.topology_report_every runs as an "off" step: the topology term's
    weight 1 - lambda is 0, so the weights come out bit-identical, and the
    kNN, the support unions and the fits are skipped. Its row's
    mean_d_pos_topo is nan. Iteration 0 and every lambda < 1 step report d_T.

    Each step's batches, tape, structure and graph are freed before the
    next step samples, so a step's peak holds one step's arrays only.

    Each view's net pass records on a tape and leaves of its own, joined
    onto the step's tape as a branch (autodiff.Tape.join). At a batch that
    _rows splits, the positive view's pass runs on a pool worker while this
    thread runs the anchor's, and the backward sweep runs the two branches
    side by side after the loss nodes. The parameter gradients are summed
    as one shared set of leaves would sum them, so the weights are bitwise
    those of a one-thread sweep. When both views degenerate, the anchor
    view's error is raised.
    """
    train_ds = training_split(cfg, dataset)
    plain_cfg = replace(cfg, topology_gradient_mode="off")
    init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    net = netmod.init_net(cfg.net_widths, np.random.default_rng(init_seed), dtype=cfg.dtype())
    sample_rng = np.random.default_rng(sample_seed)
    state = None
    rows: list[lossmod.LossReport] = []

    for i in range(cfg.iterations):
        _, batch_a, batch_p = datamod.sample_batch(train_ds, cfg.batch_size, sample_rng)
        lam = lossmod.resolve_lambda(i, cfg)
        plain = (
            lam == 1.0
            and i % cfg.topology_report_every != 0
            and cfg.topology_gradient_mode != "off"
        )
        step_cfg = plain_cfg if plain else cfg
        tape = ad.Tape()
        try:
            (tape_a, leaves_a, desc_a), (tape_p, leaves_p, desc_p) = _rows.side_by_side(
                cfg.batch_size,
                partial(_view, net, batch_a, netmod.forward),
                partial(_view, net, batch_p, _untraced_forward),
            )
            tape.join(cfg.batch_size, tape_a, tape_p)
            structure = lossmod.select_structure(desc_a.value, desc_p.value, step_cfg)
            graph = lossmod.build_loss_graph(desc_a, desc_p, lam, step_cfg, structure, tape)
        except (DegenerateDescriptorError, DegenerateFitError, SingularSystemError) as exc:
            raise TrainingDivergenceError(str(exc), i - 1) from exc
        if not np.isfinite(graph.loss.value):
            raise TrainingDivergenceError(f"loss is {float(graph.loss.value)!r}", i - 1)
        ad.backward(tape, graph.loss)
        grads = _summed_grads(leaves_a, leaves_p)
        state = netmod.sgd_step(
            net, grads, learning_rate(i, cfg), MOMENTUM, WEIGHT_DECAY, state
        )
        # Tensor.tape and Tape.nodes form a cycle; break it so the step's graph is freed now.
        tape.nodes.clear()
        rows.append(replace(graph.report, mean_d_pos_topo=math.nan) if plain else graph.report)
        del batch_a, batch_p, tape, tape_a, tape_p, leaves_a, leaves_p, desc_a, desc_p
        del structure, graph, grads
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
