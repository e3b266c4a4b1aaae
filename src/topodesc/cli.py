"""Command-line interface: generate, train, eval, inspect, gradcheck.

Exit codes: 0 success, 1 check failure, 2 usage or invalid argument,
3 I/O or file-format error (an unreadable or malformed input, or an output
that cannot be written), 4 numerical divergence during training.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from . import data as datamod
from . import metrics
from . import loss as lossmod
from . import net as netmod
from .config import (
    FIELD_CHOICES,
    GRADIENT_MODES,
    PRESETS,
    RunConfig,
    format_config,
    parse_config_file,
    parse_value,
    resolve_config,
    resolve_seed,
)
from .errors import (
    DatasetFormatError,
    DegenerateDescriptorError,
    DegenerateFitError,
    InvalidArgumentError,
    InvalidBatchError,
    InvalidInputError,
    SingularSystemError,
)
from .gradcheck import grad_check
from .train import TrainingDivergenceError, run_training, training_split, write_log

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

# A setting flag is --<RunConfig field name with dashes>, except these.
_FLAG_SPELLINGS = {"topology_gradient_mode": "--topology"}
_FLAG_HELP = {
    "net_widths": "comma-separated layer widths",
    "lambda_mode": "dynamic or fixed:<value in [0,1]>",
    "topology_report_every": "compute the logged d_T of a lambda = 1 step only every N iterations",
}


def _add_setting_flags(parser: argparse.ArgumentParser, names) -> None:
    """One flag per RunConfig field in names; _settings parses what they hold."""
    for name in names:
        flag = _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))
        metavar = "{" + ",".join(FIELD_CHOICES[name]) + "}" if name in FIELD_CHOICES else None
        parser.add_argument(flag, dest=name, metavar=metavar, help=_FLAG_HELP.get(name))
    parser.set_defaults(settings=tuple(names))


def _settings(args) -> dict:
    """The setting flags given, each parsed as its config-file line would be."""
    given = {name: getattr(args, name) for name in args.settings}
    return {name: parse_value(name, raw) for name, raw in given.items() if raw is not None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints one error: line and exits 2, with no usage block
        raise InvalidArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topodesc",
        description="Topology-consistent descriptor training toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic matched-pair dataset")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--scenes", type=int, default=512)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--noise", type=float, default=0.05)
    gen.add_argument("--distortion", type=float, default=0.3)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train a descriptor net on a dataset")
    tr.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    tr.add_argument("--config", default=None, help="flat key = value config file")
    _add_setting_flags(tr, [f.name for f in fields(RunConfig)])
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--split", choices=("heldout", "train", "all"), default="heldout")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--negatives-per-positive", type=int, default=10)
    ev.add_argument("--out", default=None, help="optional CSV to write the report to")
    ev.set_defaults(func=cmd_eval)

    ins = sub.add_parser("inspect", help="dump topology vectors for one batch")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--dataset", required=True)
    ins.add_argument("--seed", type=int, default=None)
    _add_setting_flags(ins, ("batch_size", "k"))
    ins.add_argument("--out", default=None, help="optional CSV of per-pair distances")
    ins.set_defaults(func=cmd_inspect)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the loss gradient")
    gc.add_argument("--seed", type=int, default=None)
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.add_argument("--mode", choices=GRADIENT_MODES[:2], default="through-weights")
    gc.add_argument("--lam", type=float, default=0.5)
    gc.add_argument("--step", type=float, default=1e-5)
    gc.set_defaults(func=cmd_gradcheck)

    return parser


def cmd_generate(args) -> int:
    seed = resolve_seed(args.seed)
    ds = datamod.generate(seed, args.scenes, args.dim, args.noise, args.distortion)
    datamod.write_dataset(ds, args.out)
    print(
        f"wrote {args.out}: scenes={ds.scene_count} dim={ds.dim} seed={ds.seed} "
        f"noise_sigma={ds.noise_sigma} distortion={ds.distortion}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    flag_values = _settings(args)
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(args.preset, file_values, flag_values)
    if not cfg.dataset:
        raise InvalidArgumentError("a dataset path is required (--dataset or config file)")
    if not cfg.out_dir:
        raise InvalidArgumentError("an output directory is required (--out-dir or config file)")
    # Reject a run that config.txt cannot reproduce, or that cannot start,
    # before writing anything.
    config_text = format_config(cfg)
    dataset = datamod.read_dataset(cfg.dataset)
    training_split(cfg, dataset)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(config_text)
    result = run_training(cfg, dataset)
    checkpoint_path = os.path.join(cfg.out_dir, "model.tcd1")
    log_path = os.path.join(cfg.out_dir, "train_log.csv")
    netmod.save_checkpoint(result.net, checkpoint_path)
    write_log(result.rows, log_path)
    print(
        f"trained {cfg.iterations} iterations: loss {result.rows[0].loss:.6f} -> "
        f"{result.rows[-1].loss:.6f}; checkpoint {checkpoint_path}; log {log_path}"
    )
    return EXIT_OK


def _load_net_and_data(checkpoint: str, dataset: str):
    net = netmod.load_checkpoint(checkpoint)
    ds = datamod.read_dataset(dataset)
    if net.input_dim != ds.dim:
        raise DatasetFormatError(
            f"checkpoint input width {net.input_dim} does not match dataset dim {ds.dim}"
        )
    return net, ds


def cmd_eval(args) -> int:
    net, ds = _load_net_and_data(args.checkpoint, args.dataset)
    if args.split != "all":
        train_ds, heldout_ds = datamod.split_train_heldout(ds)
        ds = heldout_ds if args.split == "heldout" else train_ds
    desc_a = netmod.embed(net, ds.views_a)
    desc_p = netmod.embed(net, ds.views_p)
    rng = np.random.default_rng(resolve_seed(args.seed))
    report = metrics.evaluate_descriptors(
        desc_a, desc_p, args.negatives_per_positive, rng
    )
    print(f"split = {args.split} ({ds.scene_count} scenes)")
    print(f"fpr95 = {report.fpr95!r}")
    print(f"mAP = {report.mAP!r}")
    print(f"n_pos = {report.n_pos}")
    print(f"n_neg = {report.n_neg}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr95", "mAP", "n_pos", "n_neg"])
            writer.writerow([repr(report.fpr95), repr(report.mAP), report.n_pos, report.n_neg])
    return EXIT_OK


def cmd_inspect(args) -> int:
    # Reject a bad --k or --batch-size before any file is read.
    cfg = RunConfig(**_settings(args))
    net, ds = _load_net_and_data(args.checkpoint, args.dataset)
    if ds.scene_count < 2:
        raise InvalidArgumentError(f"need at least 2 scenes to inspect a batch, got {ds.scene_count}")
    batch_size = min(cfg.batch_size, ds.scene_count)
    rng = np.random.default_rng(resolve_seed(args.seed))
    _, batch_a, batch_p = datamod.sample_batch(ds, batch_size, rng)
    desc_a = netmod.embed(net, batch_a)
    desc_p = netmod.embed(net, batch_p)
    # The loss's own graph on constants gives the supports, weights, d_E and
    # d_T; none of them depends on lambda, so it is 1 as at iteration 0.
    structure = lossmod.select_structure(desc_a, desc_p, cfg)
    tape = ad.Tape()
    graph = lossmod.build_loss_graph(
        ad.constant(tape, desc_a), ad.constant(tape, desc_p), 1.0, cfg, structure, tape
    )
    views = (
        ("A", structure.idx_a, graph.weights_a.value),
        ("P", structure.idx_p, graph.weights_p.value),
    )
    rows = []
    for i in range(batch_size):
        d_e = float(graph.d_pos.value[i])
        d_t = float(graph.d_topo.value[i])
        for tag, idx, w in views:
            print(f"{tag} {i}: " + " ".join(f"({j}:{float(v)!r})" for j, v in zip(idx[i], w[i])))
        flag = "  [d_T > 1]" if d_t > 1.0 else ""
        print(f"pair {i}: d_E={d_e!r} d_T={d_t!r}{flag}")
        rows.append((i, d_e, d_t, int(d_t > 1.0)))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "d_pos_euclid", "d_pos_topo", "d_topo_above_1"])
            for i, de, dt, flag in rows:
                writer.writerow([i, repr(de), repr(dt), flag])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    seed = resolve_seed(args.seed)
    if not 0.0 <= args.lam <= 1.0:
        raise InvalidArgumentError(f"--lam must be in [0, 1], got {args.lam}")
    if not 0.0 < args.tol < np.inf:
        raise InvalidArgumentError(f"--tol must be positive and finite, got {args.tol!r}")
    rng = np.random.default_rng(seed)
    net = netmod.init_net((8, 8, 4), rng, dtype=np.float64)
    patches_a = rng.standard_normal((6, 8))
    patches_p = rng.standard_normal((6, 8))
    cfg = RunConfig(k=2, topology_gradient_mode=args.mode)
    report = grad_check(net, patches_a, patches_p, cfg, args.lam, step=args.step)
    print(f"max_relative_error = {report.max_relative_error!r}")
    print(f"worst_parameter = {report.worst_parameter}")
    print(f"step_size = {report.step_size!r}")
    if report.max_relative_error < args.tol:
        print(f"gradcheck passed (tol {args.tol!r})")
        return EXIT_OK
    print(
        f"error: gradcheck failed: {report.worst_parameter} off by "
        f"{report.max_relative_error!r} (tol {args.tol!r})",
        file=sys.stderr,
    )
    return EXIT_CHECK_FAILED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; a bad command line raises InvalidArgumentError
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except (InvalidArgumentError, InvalidBatchError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FloatingPointError, DegenerateDescriptorError, DegenerateFitError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except TrainingDivergenceError as exc:
        last = exc.last_good_iteration
        print(f"error: training diverged: {exc}; last good iteration {last}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
