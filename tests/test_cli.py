"""End-to-end command-line behavior, run in process via cli.main."""

import csv
import os
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from topodesc import autodiff as ad
from topodesc import cli, data, errors, knn
from topodesc import loss as lossmod
from topodesc import net as netmod
from topodesc.config import RunConfig, parse_config_file, resolve_config
from topodesc.errors import InvalidArgumentError
from topodesc.train import TrainingDivergenceError


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One noisy dataset, one clean dataset, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    noisy = root / "noisy.tcpd"
    clean = root / "clean.tcpd"
    out_dir = root / "run"
    assert (
        cli.main(
            [
                "generate",
                "--seed",
                "11",
                "--scenes",
                "60",
                "--dim",
                "6",
                "--noise",
                "0.05",
                "--distortion",
                "0.2",
                "--out",
                str(noisy),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "generate",
                "--seed",
                "12",
                "--scenes",
                "40",
                "--dim",
                "6",
                "--noise",
                "0.0",
                "--distortion",
                "0.0",
                "--out",
                str(clean),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "train",
                "--dataset",
                str(noisy),
                "--out-dir",
                str(out_dir),
                "--seed",
                "5",
                "--net-widths",
                "6,16,8",
                "--batch-size",
                "8",
                "--iterations",
                "40",
                "--k",
                "3",
                "--lambda-n0",
                "4",
                "--lambda-N",
                "2",
            ]
        )
        == 0
    )
    return {
        "noisy": noisy,
        "clean": clean,
        "checkpoint": out_dir / "model.tcd1",
        "log": out_dir / "train_log.csv",
        "config": out_dir / "config.txt",
    }


TRAIN_FLAGS = [
    "--net-widths",
    "6,16,8",
    "--batch-size",
    "8",
    "--iterations",
    "30",
    "--k",
    "3",
    "--lambda-n0",
    "4",
    "--lambda-N",
    "2",
]

# A value other than the default for every RunConfig field but the two paths.
FIELD_VALUES = {
    "margin": 0.5,
    "k": 3,
    "lambda_n0": 4,
    "lambda_N": 2,
    "lambda_r": 0.05,
    "lambda_floor": 0.75,
    "topology_gradient_mode": "detached",
    "net_widths": (6, 12, 4),
    "batch_size": 8,
    "iterations": 3,
    "lr_start": 0.05,
    "lr_end": 0.01,
    "seed": 7,
    "precision": "single",
    "lambda_mode": "fixed:0.25",
    "topology_report_every": 5,
}


def _as_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def read_log(path):
    """train_log.csv rows as dicts of floats."""
    with open(path, newline="") as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.tcpd"
        b = tmp_path / "b.tcpd"
        for path in (a, b):
            code = cli.main(
                ["generate", "--seed", "3", "--scenes", "8", "--dim", "4", "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "scenes=8" in out and "dim=4" in out

    def test_missing_out_flag_is_usage_error(self, capsys):
        assert cli.main(["generate", "--seed", "1"]) == 2

    def test_single_scene_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["generate", "--scenes", "1", "--dim", "4", "--out", str(tmp_path / "x.tcpd")]
        )
        assert code == 2
        assert "at least 2 scenes" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["generate", "--scenes", "4", "--dim", "3", "--out", str(blocker / "x.tcpd")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "env.tcpd"
        b = tmp_path / "flag.tcpd"
        monkeypatch.setenv("TCDESC_SEED", "21")
        assert cli.main(["generate", "--scenes", "6", "--dim", "3", "--out", str(a)]) == 0
        monkeypatch.delenv("TCDESC_SEED")
        assert (
            cli.main(["generate", "--seed", "21", "--scenes", "6", "--dim", "3", "--out", str(b)])
            == 0
        )
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_writes_all_artifacts(self, workspace):
        assert workspace["checkpoint"].exists()
        assert workspace["log"].exists()
        assert workspace["config"].exists()
        header = workspace["log"].read_text().splitlines()[0]
        assert header == "iteration,lambda,loss,mean_d_pos_euclid,mean_d_pos_topo,mean_d_neg,active_triplets"

    def test_config_echo_reflects_flags(self, workspace):
        text = workspace["config"].read_text()
        assert "k = 3" in text
        assert "seed = 5" in text
        assert "net_widths = 6,16,8" in text
        assert "iterations = 40" in text

    def test_missing_dataset_flag(self, tmp_path, capsys):
        code = cli.main(["train", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: a dataset path is required (--dataset or config file)\n"

    def test_missing_out_dir_flag(self, workspace, capsys):
        code = cli.main(["train", "--dataset", str(workspace["noisy"])])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: an output directory is required (--out-dir or config file)\n"

    def test_nonexistent_dataset_is_io_error(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--dataset", str(tmp_path / "missing.tcpd"), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 3

    def test_out_dir_under_regular_file_is_io_error(self, workspace, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(
            ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(blocker / "run")]
            + TRAIN_FLAGS
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_same_seed_reproduces_checkpoint_bytes(self, workspace, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = cli.main(
                ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(out), "--seed", "9"]
                + TRAIN_FLAGS
            )
            assert code == 0
            outs.append((out / "model.tcd1").read_bytes())
        assert outs[0] == outs[1]

    def test_loss_decreases_over_short_run(self, workspace):
        rows = read_log(workspace["log"])
        assert rows[-1]["loss"] < rows[0]["loss"]

    def test_off_mode_matches_fixed_lambda_one(self, workspace, tmp_path):
        logs = []
        for name, extra in (
            ("off", ["--topology", "off"]),
            ("fixed", ["--lambda-mode", "fixed:1.0"]),
        ):
            out = tmp_path / name
            code = cli.main(
                ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(out), "--seed", "4"]
                + TRAIN_FLAGS
                + extra
            )
            assert code == 0
            logs.append(read_log(out / "train_log.csv"))
        for row_off, row_fixed in zip(*logs):
            assert abs(row_off["loss"] - row_fixed["loss"]) <= 1e-12
            assert row_off["active_triplets"] == row_fixed["active_triplets"]

    def test_divergent_run_exits_4(self, workspace, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(
                [
                    "train",
                    "--dataset",
                    str(workspace["noisy"]),
                    "--out-dir",
                    str(tmp_path / "boom"),
                    "--lr-start",
                    "1e300",
                    "--lr-end",
                    "1e300",
                ]
                + TRAIN_FLAGS
            )
        assert code == 4
        assert "last good iteration" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = 4\nbatch_size = 8\niterations = 6\nnet_widths = 6,12,6\nlambda_n0 = 2\nlambda_N = 2\n")
        out = tmp_path / "cfgrun"
        code = cli.main(
            [
                "train",
                "--config",
                str(cfg_file),
                "--dataset",
                str(workspace["noisy"]),
                "--out-dir",
                str(out),
                "--k",
                "5",
            ]
        )
        assert code == 0
        echo = (out / "config.txt").read_text()
        assert "k = 5" in echo  # flag beats file
        assert "iterations = 6" in echo  # file beats preset
        assert "batch_size = 8" in echo

    def test_env_seed_lands_in_config_echo(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("TCDESC_SEED", "123")
        out = tmp_path / "envrun"
        code = cli.main(
            ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(out)] + TRAIN_FLAGS
        )
        assert code == 0
        assert "seed = 123" in (out / "config.txt").read_text()

    @pytest.mark.parametrize("field", ["dataset", "out_dir"])
    def test_run_config_txt_cannot_reproduce_exits_2(
        self, field, workspace, tmp_path, monkeypatch, capsys
    ):
        # config.txt would read these back as "my data" and "run0"
        monkeypatch.chdir(tmp_path)
        dataset, out_dir = workspace["noisy"], "o"
        if field == "dataset":
            dataset = tmp_path / "my data #1.tcpd"
            dataset.write_bytes(workspace["noisy"].read_bytes())
        else:
            out_dir = " run0"
        code = cli.main(["train", "--dataset", str(dataset), "--out-dir", out_dir] + TRAIN_FLAGS)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} "), err
        written = [p.name for p in tmp_path.iterdir()]
        assert written == (["my data #1.tcpd"] if field == "dataset" else [])

    @pytest.mark.parametrize("field", ["dataset", "out_dir"])
    def test_path_that_is_not_utf8_exits_2(self, field, workspace, tmp_path, monkeypatch, capsys):
        # argv carries the byte 0xff surrogate-escaped, as the OS hands it over
        monkeypatch.chdir(tmp_path)
        dataset, out_dir = workspace["noisy"], "o"
        if field == "dataset":
            dataset = tmp_path / os.fsdecode(b"data\xff.tcpd")
            dataset.write_bytes(workspace["noisy"].read_bytes())
        else:
            out_dir = os.fsdecode(b"bad\xff")
        code = cli.main(["train", "--dataset", str(dataset), "--out-dir", out_dir] + TRAIN_FLAGS)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} "), err
        written = [p.name for p in tmp_path.iterdir()]
        assert written == ([dataset.name] if field == "dataset" else [])

    def test_config_echo_reproduces_the_run(self, workspace, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        code = cli.main(
            ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(first), "--seed", "6"]
            + ["--lambda-mode", "fixed:0.5", "--topology", "detached"]
            + TRAIN_FLAGS
        )
        assert code == 0
        echo = first / "config.txt"
        assert cli.main(["train", "--config", str(echo), "--out-dir", str(second)]) == 0
        for name in ("model.tcd1", "train_log.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert (second / "config.txt").read_text() == echo.read_text().replace(
            str(first), str(second)
        )
        expected = RunConfig(
            dataset=str(workspace["noisy"]),
            out_dir=str(first),
            seed=6,
            lambda_mode="fixed:0.5",
            topology_gradient_mode="detached",
            net_widths=(6, 16, 8),
            batch_size=8,
            iterations=30,
            k=3,
            lambda_n0=4,
            lambda_N=2,
        )
        assert resolve_config(file_values=parse_config_file(str(echo))) == expected

    @pytest.mark.parametrize("source", ["flags", "config-file"])
    def test_every_field_can_be_set(self, source, workspace, tmp_path):
        out = tmp_path / "run"
        values = dict(FIELD_VALUES, dataset=str(workspace["noisy"]), out_dir=str(out))
        assert sorted(values) == sorted(f.name for f in fields(RunConfig))
        defaults = RunConfig()
        assert all(value != getattr(defaults, name) for name, value in values.items())
        if source == "flags":
            argv = ["train"]
            for name, value in values.items():
                flag = "--" + name.replace("_", "-")
                argv += ["--topology" if name == "topology_gradient_mode" else flag, _as_text(value)]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("".join(f"{name} = {_as_text(v)}\n" for name, v in values.items()))
            argv = ["train", "--config", str(cfg_file)]
        assert cli.main(argv) == 0
        echo = parse_config_file(str(out / "config.txt"))
        assert resolve_config(file_values=echo) == RunConfig(**values)

    def test_bad_lambda_mode_is_usage_error(self, workspace, tmp_path, capsys):
        code = cli.main(
            [
                "train",
                "--dataset",
                str(workspace["noisy"]),
                "--out-dir",
                str(tmp_path / "o"),
                "--lambda-mode",
                "sometimes",
            ]
            + TRAIN_FLAGS
        )
        assert code == 2


class TestEval:
    def test_report_and_determinism(self, workspace, capsys):
        argv = [
            "eval",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--dataset",
            str(workspace["noisy"]),
            "--seed",
            "0",
            "--negatives-per-positive",
            "4",
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "split = heldout (12 scenes)" in first
        assert re.search(r"fpr95 = [0-9.]", first)
        assert re.search(r"mAP = [0-9.]", first)
        assert "n_pos = 12" in first
        assert "n_neg = 48" in first

    def test_draws_past_the_address_space_exit_2(self, workspace, capsys):
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"])]
        argv += ["--dataset", str(workspace["noisy"]), "--negatives-per-positive", str(2**61)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: negatives_per_positive {2**61} "), err

    def test_identical_views_give_zero_fpr(self, workspace, capsys):
        code = cli.main(
            [
                "eval",
                "--checkpoint",
                str(workspace["checkpoint"]),
                "--dataset",
                str(workspace["clean"]),
                "--split",
                "all",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fpr95 = 0.0" in out
        assert "mAP = 1.0" in out

    def test_csv_out(self, workspace, tmp_path):
        out_csv = tmp_path / "report.csv"
        code = cli.main(
            [
                "eval",
                "--checkpoint",
                str(workspace["checkpoint"]),
                "--dataset",
                str(workspace["noisy"]),
                "--seed",
                "0",
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "fpr95,mAP,n_pos,n_neg"
        assert len(lines) == 2

    def test_missing_checkpoint_is_io_error(self, workspace, tmp_path, capsys):
        code = cli.main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "missing.tcd1"),
                "--dataset",
                str(workspace["noisy"]),
            ]
        )
        assert code == 3

    def test_dim_mismatch_is_io_error(self, workspace, tmp_path, capsys):
        other = tmp_path / "dim5.tcpd"
        assert (
            cli.main(["generate", "--scenes", "8", "--dim", "5", "--out", str(other)]) == 0
        )
        capsys.readouterr()
        code = cli.main(
            ["eval", "--checkpoint", str(workspace["checkpoint"]), "--dataset", str(other)]
        )
        assert code == 3
        assert "does not match dataset dim 5" in capsys.readouterr().err


class TestInspect:
    def test_identical_views_fixture(self, workspace, capsys):
        code = cli.main(
            [
                "inspect",
                "--checkpoint",
                str(workspace["checkpoint"]),
                "--dataset",
                str(workspace["clean"]),
                "--seed",
                "2",
                "--batch-size",
                "16",
                "--k",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out

        pair_lines = [l for l in out.splitlines() if l.startswith("pair ")]
        assert len(pair_lines) == 16
        for line in pair_lines:
            assert "d_T=0.0" in line
            assert "[d_T > 1]" not in line

        # every printed support sums to one and matches a recomputed kNN set
        net = netmod.load_checkpoint(str(workspace["checkpoint"]))
        ds = data.read_dataset(str(workspace["clean"]))
        _, batch_a, _ = data.sample_batch(ds, 16, np.random.default_rng(2))
        desc_a = netmod.embed(net, batch_a)
        idx = knn.neighbor_index_matrix(desc_a, 3)
        a_lines = [l for l in out.splitlines() if l.startswith("A ")]
        assert len(a_lines) == 16
        for i, line in enumerate(a_lines):
            entries = re.findall(r"\((\d+):([^)]+)\)", line)
            assert len(entries) == 3
            support = {int(j) for j, _ in entries}
            assert support == set(idx[i].tolist())
            total = sum(float(w) for _, w in entries)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_csv_out(self, workspace, tmp_path):
        out_csv = tmp_path / "inspect.csv"
        code = cli.main(
            [
                "inspect",
                "--checkpoint",
                str(workspace["checkpoint"]),
                "--dataset",
                str(workspace["clean"]),
                "--seed",
                "2",
                "--batch-size",
                "8",
                "--k",
                "3",
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "index,d_pos_euclid,d_pos_topo,d_topo_above_1"
        assert len(lines) == 9
        for row in lines[1:]:
            assert row.endswith(",0")  # no pair exceeds the d_T = 1 diagnostic


    def test_prints_the_loss_graph(self, workspace, capsys):
        args = ["--seed", "4", "--batch-size", "12", "--k", "3"]
        paths = ["--checkpoint", str(workspace["checkpoint"]), "--dataset", str(workspace["noisy"])]
        assert cli.main(["inspect", *paths, *args]) == 0
        lines = capsys.readouterr().out.splitlines()

        net = netmod.load_checkpoint(str(workspace["checkpoint"]))
        ds = data.read_dataset(str(workspace["noisy"]))
        _, batch_a, batch_p = data.sample_batch(ds, 12, np.random.default_rng(4))
        desc_a, desc_p = netmod.embed(net, batch_a), netmod.embed(net, batch_p)
        cfg = RunConfig(k=3)
        structure = lossmod.select_structure(desc_a, desc_p, cfg)
        tape = ad.Tape()
        graph = lossmod.build_loss_graph(
            ad.constant(tape, desc_a), ad.constant(tape, desc_p), 1.0, cfg, structure, tape
        )

        for tag, idx, w in (
            ("A", structure.idx_a, graph.weights_a.value),
            ("P", structure.idx_p, graph.weights_p.value),
        ):
            view = [l for l in lines if l.startswith(f"{tag} ")]
            assert len(view) == 12
            for i, line in enumerate(view):
                entries = re.findall(r"\((\d+):([^)]+)\)", line)
                assert [int(j) for j, _ in entries] == idx[i].tolist()  # nearest first
                assert [float(v) for _, v in entries] == w[i].tolist()
        pairs = [re.fullmatch(r"pair \d+: d_E=(\S+) d_T=(\S+)(  \[d_T > 1\])?", l) for l in lines]
        pairs = [m for m in pairs if m]
        d_e = np.array([float(m[1]) for m in pairs])
        d_t = np.array([float(m[2]) for m in pairs])
        np.testing.assert_array_equal(d_e, graph.d_pos.value)
        np.testing.assert_array_equal(d_t, graph.d_topo.value)
        assert d_t.min() > 0.0
        assert d_t.mean() == lossmod.batch_loss(desc_a, desc_p, 0, cfg).mean_d_pos_topo


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        assert "max_relative_error" in out

    def test_detached_tighter_tolerance(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0", "--mode", "detached", "--tol", "1e-5"]) == 0

    def test_lambda_one_tighter_tolerance(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0", "--lam", "1.0", "--tol", "1e-5"]) == 0

    @pytest.mark.parametrize(
        "crook, error",
        [(lambda g: 1.02 * g, None), (lambda g: np.full_like(g, np.nan), "nan")],
        ids=["tanh-2%-off", "nan"],
    )
    def test_crooked_gradient_fails(self, crook, error, monkeypatch, capsys):
        # the net's layer backward with its tanh derivative 2% off, or NaN, in both views
        real_backward = netmod._dense_backward

        def crooked(g, x, w, y, activation, first):
            return real_backward(crook(g) if activation == "tanh" else g, x, w, y, activation, first)

        monkeypatch.setattr(netmod, "_dense_backward", crooked)
        assert cli.main(["gradcheck", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert "gradcheck failed" in captured.err
        if error is not None:
            assert f"max_relative_error = {error}" in captured.out

    def test_non_finite_loss_exits_1_with_one_error_line(self, monkeypatch, capsys):
        build = lossmod.build_loss_graph

        def nan_loss(*args):
            graph = build(*args)
            graph.loss.value = np.full_like(graph.loss.value, np.nan)
            return graph

        monkeypatch.setattr(lossmod, "build_loss_graph", nan_loss)
        assert cli.main(["gradcheck", "--seed", "0"]) == 1
        assert capsys.readouterr().err == "error: loss is nan\n"

    def test_out_of_range_lambda_is_usage_error(self, capsys):
        assert cli.main(["gradcheck", "--lam", "1.5"]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--net-widths", "16,a"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--lambda-mode", "fixed:abc"], None),
        (["gradcheck", "--step", "0"], None),
        (["gradcheck", "--step=-1e-5"], None),
        (["gradcheck", "--step", "inf"], None),
        (["gradcheck", "--step", "nan"], None),
        (["eval", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}", "--seed", "-1"], None),
        (["inspect", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}", "--seed", "-1"], None),
        (["gradcheck", "--seed", "-1"], None),
        (["eval", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}"], "-3"),
        (["inspect", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}"], "-3"),
        (["gradcheck"], "-3"),
        (["generate", "--noise", "nan", "--out", "{out}"], None),
        (["generate", "--distortion", "inf", "--out", "{out}"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--lr-start", "nan"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--lr-end", "inf"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--margin", "inf"], None),
        (["train", "--config", "{inf_margin}", "--dataset", "{noisy}", "--out-dir", "{out}"], None),
        (["train", "--config", "{nan_lr}", "--dataset", "{noisy}", "--out-dir", "{out}"], None),
        (["gradcheck", "--tol", "nan"], None),
        (["generate", "--noise", "1e39", "--out", "{out}"], None),
        (["train", "--config", "{bad_mode}", "--dataset", "{noisy}", "--out-dir", "{out}"], None),
        (["train", "--config", "{empty_width}", "--dataset", "{noisy}", "--out-dir", "{out}"], None),
        (
            ["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--net-widths", "6,,16,8"]
            + ["--batch-size", "8", "--k", "3", "--iterations", "1"],
            None,
        ),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--net-widths", "5,8"], None),
        (
            ["train", "--dataset", "{noisy}", "--out-dir", "{out}"]
            + ["--net-widths", "6,8", "--batch-size", "49"],  # 48 training scenes
            None,
        ),
        (
            ["train", "--dataset", "{noisy}", "--out-dir", "{out}"]
            + ["--net-widths", "6,8", "--batch-size", "8", "--k", "8"],
            None,
        ),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--k", "three"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--k", "3.0"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--precision", "bogus"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--topology", "sometimes"], None),
        (["inspect", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}", "--k", "x"], None),
        # missing files: a bad --k is rejected before either is read
        (["inspect", "--checkpoint", "{out}.tcd1", "--dataset", "{out}.tcpd", "--k", "x"], None),
        # argparse's own checks: no usage block, as for the flags above
        (["gradcheck", "--mode", "sometimes"], None),
        (["generate", "--scenes", "x", "--out", "{out}"], None),
        (["generate"], None),
        (["eval", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}"]
         + ["--negatives-per-positive", "1.5"], None),
        (["eval", "--checkpoint", "{checkpoint}", "--dataset", "{noisy}", "--split", "bogus"], None),
        (["train", "--dataset", "{noisy}", "--out-dir", "{out}", "--preset", "huge"], None),
        (["frobnicate"], None),
    ],
    ids=[
        "train-net-widths",
        "train-lambda-mode",
        "gradcheck-step-zero",
        "gradcheck-step-negative",
        "gradcheck-step-inf",
        "gradcheck-step-nan",
        "eval-seed",
        "inspect-seed",
        "gradcheck-seed",
        "eval-env-seed",
        "inspect-env-seed",
        "gradcheck-env-seed",
        "generate-noise-nan",
        "generate-distortion-inf",
        "train-lr-start-nan",
        "train-lr-end-inf",
        "train-margin-inf",
        "train-config-margin-inf",
        "train-config-lr-start-nan",
        "gradcheck-tol-nan",
        "generate-noise-overflows-float32",
        "train-config-lambda-mode",
        "train-config-net-widths-empty",
        "train-net-widths-empty",
        "train-net-width-vs-dataset-dim",
        "train-batch-size-vs-train-split",
        "train-k-vs-batch-size",
        "train-k-word",
        "train-k-float",
        "train-precision",
        "train-topology",
        "inspect-k",
        "inspect-k-before-reading",
        "gradcheck-mode",
        "generate-scenes-word",
        "generate-no-out",
        "eval-negatives-per-positive-float",
        "eval-split",
        "train-preset",
        "unknown-subcommand",
    ],
)
def test_bad_argument_exits_2_with_one_error_line(
    argv, env_seed, workspace, tmp_path, monkeypatch, capsys
):
    if env_seed is None:
        monkeypatch.delenv("TCDESC_SEED", raising=False)
    else:
        monkeypatch.setenv("TCDESC_SEED", env_seed)
    paths = {"noisy": workspace["noisy"], "checkpoint": workspace["checkpoint"]}
    for name, text in (
        ("inf_margin", "margin = inf\n"),
        ("nan_lr", "lr_start = nan\n"),
        ("bad_mode", "lambda_mode = fixed:2\n"),
        # a run that would train if the empty width were skipped
        ("empty_width", "net_widths = 6,,16,8\nbatch_size = 8\nk = 3\niterations = 1\n"),
    ):
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    argv = [a.format(out=tmp_path / "o", **paths) for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "o").exists()  # nothing written before the argument was rejected


# The README's exit code for each error main maps.
EXIT_CODES = {
    errors.InvalidInputError: 2,
    errors.InvalidArgumentError: 2,
    errors.InvalidBatchError: 2,
    errors.DatasetFormatError: 3,
    errors.SingularSystemError: 1,
    errors.DegenerateFitError: 1,
    errors.DegenerateDescriptorError: 1,
    FloatingPointError: 1,
    TrainingDivergenceError: 4,
}


def test_every_error_class_has_an_exit_code():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)}
    assert classes <= set(EXIT_CODES)


@pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_error_exits_with_its_code_and_one_error_line(error, workspace, tmp_path, monkeypatch, capsys):
    args = ("boom", 6) if error is TrainingDivergenceError else ("boom",)

    def failing(cfg, dataset):
        raise error(*args)

    monkeypatch.setattr(cli, "run_training", failing)
    argv = ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv + TRAIN_FLAGS) == EXIT_CODES[error]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "boom" in err[0], err
    if error is TrainingDivergenceError:
        assert err[0] == "error: training diverged: boom; last good iteration 6"


@pytest.mark.parametrize(
    "flags, values",
    [
        (["--margin", "0"], {"margin": 0.0}),
        (["--k", "0"], {"k": 0}),
        (["--lambda-n0", "-1"], {"lambda_n0": -1}),
        (["--lambda-N", "0"], {"lambda_N": 0}),
        (["--lambda-r", "0"], {"lambda_r": 0.0}),
        (["--lambda-floor", "0"], {"lambda_floor": 0.0}),
        (["--lambda-floor", "1.5"], {"lambda_floor": 1.5}),
        (["--config", "{bad_topology}"], {"topology_gradient_mode": "sometimes"}),
        (["--topology-report-every", "0"], {"topology_report_every": 0}),
    ],
    ids=[
        "margin",
        "k",
        "lambda-n0",
        "lambda-N",
        "lambda-r",
        "lambda-floor-0",
        "lambda-floor-1.5",
        "config-topology",
        "topology-report-every",
    ],
)
def test_train_flag_fails_the_run_config_check(flags, values, workspace, tmp_path, capsys):
    with pytest.raises(InvalidArgumentError) as info:
        RunConfig(**values)
    cfg_file = tmp_path / "bad_topology.cfg"
    cfg_file.write_text("topology_gradient_mode = sometimes\n")
    argv = ["train", "--dataset", str(workspace["noisy"]), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv + [f.format(bad_topology=cfg_file) for f in flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {info.value}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenes", [0, 1])
@pytest.mark.parametrize("command", ["train", "eval-heldout", "eval-train"])
def test_dataset_too_small_to_split_exits_2(command, scenes, workspace, tmp_path, capsys):
    path = tmp_path / "small.tcpd"
    noisy = data.read_dataset(str(workspace["noisy"]))
    data.write_dataset(data.subset(noisy, np.arange(scenes)), str(path))
    if command == "train":
        argv = ["train", "--dataset", str(path), "--out-dir", str(tmp_path / "o")]
        argv += ["--net-widths", "6,8"]
    else:
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--dataset", str(path)]
        argv += ["--split", command.removeprefix("eval-")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: need at least 2 scenes to split off a held-out set, got {scenes}"], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "scenes, batch_size, message",
    [
        (2, "2", "a batch needs 2 scenes, but the training split has 1"),
        (5, "5", "batch_size must be in [2, 4], got 5"),
        (5, "1", "batch_size must be >= 2, got 1"),
    ],
)
def test_batch_size_error_names_the_usable_range(
    scenes, batch_size, message, workspace, tmp_path, capsys
):
    path = tmp_path / "small.tcpd"
    noisy = data.read_dataset(str(workspace["noisy"]))
    data.write_dataset(data.subset(noisy, np.arange(scenes)), str(path))
    argv = ["train", "--dataset", str(path), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv + ["--net-widths", "6,8", "--batch-size", batch_size]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


def test_help_exits_0_with_usage_on_stdout(capsys):
    assert cli.main(["train", "--help"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: topodesc train") and out.err == ""


@pytest.mark.parametrize("scenes", [0, 1])
def test_inspect_on_fewer_than_2_scenes_exits_2(scenes, workspace, tmp_path, capsys):
    path = tmp_path / "small.tcpd"
    noisy = data.read_dataset(str(workspace["noisy"]))
    data.write_dataset(data.subset(noisy, np.arange(scenes)), str(path))
    argv = ["inspect", "--checkpoint", str(workspace["checkpoint"]), "--dataset", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: need at least 2 scenes to inspect a batch, got {scenes}"], err


@pytest.mark.parametrize("dim, scenes", [(2**31, 0), (2**30, 1), (400_000_000, 3)])
def test_huge_dim_header_exits_3(dim, scenes, tmp_path, capsys):
    path = tmp_path / "huge.tcpd"
    path.write_bytes(struct.pack("<4sIIIQdd", b"TCPD", 1, scenes, dim, 0, 0.0, 0.0))
    assert cli.main(["train", "--dataset", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: header dim {dim} at offset 12 must be in [1, {data.MAX_DIM}]"], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, corrupt",
    [("eval", "dataset"), ("eval", "checkpoint"), ("inspect", "dataset"), ("inspect", "checkpoint")],
)
def test_non_finite_input_file_exits_3(command, corrupt, workspace, tmp_path, capsys):
    paths = {"dataset": workspace["noisy"], "checkpoint": workspace["checkpoint"]}
    blob = bytearray(paths[corrupt].read_bytes())
    if corrupt == "dataset":
        offset = 40 + 52 + 4  # header, scene 0 (id + 12 float32), scene 1's id
        struct.pack_into("<f", blob, offset, np.nan)
    else:
        offset = 8 + 12  # magic and count, three widths: the first weight
        struct.pack_into("<d", blob, offset, np.inf)
    paths[corrupt] = tmp_path / ("bad" + paths[corrupt].suffix)
    paths[corrupt].write_bytes(bytes(blob))
    argv = [command, "--checkpoint", str(paths["checkpoint"]), "--dataset", str(paths["dataset"])]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite"), err
    assert err[0].endswith(f"at offset {offset}")
