"""Config file parsing, preset merging, and seed fallback."""

import argparse
from dataclasses import fields

import numpy as np
import pytest

from topodesc import cli
from topodesc import config as C
from topodesc.errors import InvalidArgumentError, InvalidInputError

# config.txt of the desk preset, byte for byte; an empty value keeps its space.
DESK_CONFIG_TXT = "".join(
    f"{line}\n"
    for line in (
        "margin = 1.0",
        "k = 8",
        "lambda_n0 = 500",
        "lambda_N = 100",
        "lambda_r = 0.025",
        "lambda_floor = 0.5",
        "topology_gradient_mode = through-weights",
        "net_widths = 16,64,64,32",
        "batch_size = 64",
        "iterations = 2000",
        "lr_start = 0.1",
        "lr_end = 0.0",
        "seed = 0",
        "dataset = ",
        "out_dir = ",
        "precision = double",
        "lambda_mode = dynamic",
        "topology_report_every = 1",
    )
)

PAPER_CONFIG_TXT = (
    DESK_CONFIG_TXT.replace("k = 8\n", "k = 20\n")
    .replace("lambda_n0 = 500\n", "lambda_n0 = 50000\n")
    .replace("lambda_N = 100\n", "lambda_N = 10000\n")
    .replace("batch_size = 64\n", "batch_size = 1024\n")
    .replace("iterations = 2000\n", "iterations = 250000\n")
    .replace("topology_report_every = 1\n", "topology_report_every = 100\n")
)

# Each check on the margin, k, schedule, gradient-mode and report-cadence fields, with its message.
FIELD_CHECKS = [
    ({"margin": 0.0}, "margin must be positive and finite, got 0.0"),
    ({"margin": np.inf}, "margin must be positive and finite, got inf"),
    ({"k": 0}, "k must be >= 1, got 0"),
    ({"lambda_n0": -1}, "schedule needs lambda_n0 >= 0 and lambda_N >= 1, got -1, 100"),
    ({"lambda_N": 0}, "schedule needs lambda_n0 >= 0 and lambda_N >= 1, got 500, 0"),
    ({"lambda_r": 0.0}, "lambda_r must be positive and finite, got 0.0"),
    ({"lambda_floor": 0.0}, "lambda_floor must be in (0, 1], got 0.0"),
    ({"lambda_floor": 1.5}, "lambda_floor must be in (0, 1], got 1.5"),
    (
        {"topology_gradient_mode": "sometimes"},
        "topology_gradient_mode must be one of ('through-weights', 'detached', 'off'), "
        "got 'sometimes'",
    ),
    ({"topology_report_every": 0}, "topology_report_every must be >= 1, got 0"),
]


class TestRunConfig:
    def test_desk_defaults(self):
        cfg = C.RunConfig()
        assert cfg.k == 8
        assert cfg.lambda_n0 == 500
        assert cfg.lambda_N == 100
        assert cfg.net_widths == (16, 64, 64, 32)
        assert cfg.batch_size == 64
        assert cfg.iterations == 2000
        assert (cfg.lr_start, cfg.lr_end) == (0.1, 0.0)
        assert cfg.precision == "double"

    def test_loss_config_carries_shared_fields(self):
        cfg = C.RunConfig(margin=0.75, k=5, lambda_r=0.05)
        assert (cfg.margin, cfg.k, cfg.lambda_r) == (0.75, 5, 0.05)
        assert cfg.lambda_floor == 0.5
        with pytest.raises(InvalidArgumentError, match="lambda_floor"):
            C.RunConfig(lambda_floor=0.0)
        assert C.RunConfig.__bases__ == (object,)

    def test_dtype_mapping(self):
        assert C.RunConfig().dtype() is np.float64
        assert C.RunConfig(precision="single").dtype() is np.float32

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(net_widths=(16,))
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(batch_size=1)
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(iterations=0)
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(lr_start=-0.1)
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(seed=-1)
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(precision="half")
        with pytest.raises(InvalidArgumentError):
            C.RunConfig(margin=-1.0)
        with pytest.raises(InvalidArgumentError, match="lambda_mode must be"):
            C.RunConfig(lambda_mode="sometimes")
        with pytest.raises(InvalidArgumentError, match="fixed lambda must be"):
            C.RunConfig(lambda_mode="fixed:1.5")
        with pytest.raises(InvalidArgumentError, match="fixed lambda must be"):
            C.RunConfig(lambda_mode="fixed:abc")
        for values, message in FIELD_CHECKS:
            with pytest.raises(InvalidArgumentError) as info:
                C.RunConfig(**values)
            assert str(info.value) == message


class TestConfigFile:
    def test_file_that_is_not_utf8_is_input_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"k = 3\ndataset = a\xffb\n")
        with pytest.raises(InvalidInputError, match="not UTF-8"):
            C.parse_config_file(str(path))

    def test_parse_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# training setup\n"
            "\n"
            "k = 5  # neighbors\n"
            "margin=0.8\n"
            "net_widths = 16, 32, 8\n"
            "precision = single\n"
            "lambda_mode = fixed:0.5\n"
        )
        values = C.parse_config_file(str(path))
        assert values == {
            "k": 5,
            "margin": 0.8,
            "net_widths": (16, 32, 8),
            "precision": "single",
            "lambda_mode": "fixed:0.5",
        }

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 5\nlearning_rate = 0.1\n")
        with pytest.raises(InvalidInputError, match=r"run\.cfg:2.*learning_rate"):
            C.parse_config_file(str(path))

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(InvalidInputError, match=r"run\.cfg:1"):
            C.parse_config_file(str(path))

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = many\n")
        with pytest.raises(InvalidInputError, match="'many'"):
            C.parse_config_file(str(path))

    def test_round_trip_through_format(self, tmp_path):
        cfg = C.RunConfig(
            k=5, margin=0.75, net_widths=(8, 24, 8), dataset="d.tcpd", lambda_mode="fixed:0.25"
        )
        path = tmp_path / "echo.cfg"
        path.write_text(C.format_config(cfg))
        values = C.parse_config_file(str(path))
        assert C.resolve_config(file_values=values) == cfg


    def test_hash_inside_a_value_round_trips(self, tmp_path):
        cfg = C.RunConfig(dataset="data#1.tcpd", out_dir="run#1")
        path = tmp_path / "echo.cfg"
        path.write_text(C.format_config(cfg) + "# a comment line\nk = 8  # neighbors\n")
        values = C.parse_config_file(str(path))
        assert (values["dataset"], values["out_dir"], values["k"]) == ("data#1.tcpd", "run#1", 8)
        assert C.resolve_config(file_values=values) == cfg


# Per field: a valid non-default text and an invalid one, as flag or file value.
# An empty dataset or out_dir parses but cannot start a run.
FIELD_TEXTS = {
    "margin": ("0.5", "half"),
    "k": ("3", "3.0"),
    "lambda_n0": ("4", "four"),
    "lambda_N": ("2", "1e3"),
    "lambda_r": ("0.05", "5%"),
    "lambda_floor": ("0.75", "1.5"),
    "topology_gradient_mode": ("detached", "sometimes"),
    "net_widths": ("6,12,4", "6,,16,8"),
    "batch_size": ("8", "8.5"),
    "iterations": ("3", "-1"),
    "lr_start": ("0.05", "nan"),
    "lr_end": ("0.01", "0.01,0.02"),
    "seed": ("7", "seven"),
    "dataset": ("{tmp}/other.tcpd", ""),
    "out_dir": ("{tmp}/other", ""),
    "precision": ("single", "bogus"),
    "lambda_mode": ("fixed:0.25", "fixed:2"),
    "topology_report_every": ("5", "0"),
}


def _train_config(tmp_path, monkeypatch, capsys, argv, extra_lines=""):
    """Exit code, resolved RunConfig (or None) and stderr of one train run.

    The base config file names a missing dataset, so a run whose settings
    resolve stops at reading it, after the RunConfig is built.
    """
    seen = []

    def spy(*args):
        seen.append(C.resolve_config(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "resolve_config", spy)
    path = tmp_path / "run.cfg"
    path.write_text(f"dataset = {tmp_path}/missing.tcpd\nout_dir = {tmp_path}/o\n{extra_lines}")
    code = cli.main(["train", "--config", str(path), *argv])
    return code, seen[0] if seen else None, capsys.readouterr().err


class TestFlagFileParity:
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    @pytest.mark.parametrize("name", [f.name for f in fields(C.RunConfig)])
    def test_every_field_file_and_flag_share_one_parser(
        self, name, valid, tmp_path, monkeypatch, capsys
    ):
        text = FIELD_TEXTS[name][0 if valid else 1].format(tmp=tmp_path)
        flag = "--topology" if name == "topology_gradient_mode" else "--" + name.replace("_", "-")
        from_flag = _train_config(tmp_path, monkeypatch, capsys, [flag, text])
        from_file = _train_config(tmp_path, monkeypatch, capsys, [], f"{name} = {text}\n")
        assert from_flag == from_file
        code, cfg, err = from_flag
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not (tmp_path / "o").exists()
        if valid:  # stopped at the missing dataset, with the value applied
            assert code == 3 and getattr(cfg, name) == C.parse_value(name, text)
            assert getattr(cfg, name) != getattr(C.RunConfig(), name)
        else:
            assert code == 2

    def test_train_has_one_flag_per_field(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices["train"]._actions
        names = [f.name for f in fields(C.RunConfig)]
        assert sorted(a.dest for a in actions) == sorted(["help", "preset", "config", *names])
        renamed = {
            a.dest: a.option_strings
            for a in actions
            if a.dest in names and a.option_strings != ["--" + a.dest.replace("_", "-")]
        }
        assert renamed == {"topology_gradient_mode": ["--topology"]}

    def test_bad_tuple_text_names_the_expected_form(self):
        with pytest.raises(InvalidInputError, match="comma-separated integers"):
            C.parse_value("net_widths", "6,,16,8")


class TestResolve:
    def test_flags_beat_file_beats_preset(self):
        cfg = C.resolve_config(
            preset="paper",
            file_values={"k": 3, "batch_size": 16},
            flag_values={"k": 7},
        )
        assert cfg.k == 7  # flag wins
        assert cfg.batch_size == 16  # file beats preset
        assert cfg.iterations == 250_000  # preset survives untouched keys

    def test_none_flags_are_skipped(self):
        cfg = C.resolve_config(flag_values={"k": None, "margin": None})
        assert cfg.k == 8
        assert cfg.margin == 1.0

    def test_paper_preset_values(self):
        cfg = C.resolve_config(preset="paper")
        assert cfg.k == 20
        assert cfg.lambda_n0 == 50_000
        assert cfg.lambda_N == 10_000
        assert cfg.batch_size == 1024
        assert cfg.iterations == 250_000
        assert cfg.topology_report_every == 100

    def test_desk_preset_is_the_default_config(self):
        assert C.resolve_config(preset="desk") == C.RunConfig()

    def test_unknown_preset(self):
        with pytest.raises(InvalidArgumentError, match="unknown preset"):
            C.resolve_config(preset="server")

    def test_unknown_flag_key(self):
        with pytest.raises(InvalidInputError):
            C.resolve_config(flag_values={"learning_rate": 0.1})

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv(C.SEED_ENV_VAR, "41")
        assert C.resolve_config().seed == 41

    def test_explicit_seed_beats_env(self, monkeypatch):
        monkeypatch.setenv(C.SEED_ENV_VAR, "41")
        assert C.resolve_config(flag_values={"seed": 7}).seed == 7
        assert C.resolve_config(file_values={"seed": 9}).seed == 9

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(C.SEED_ENV_VAR, "forty-one")
        with pytest.raises(InvalidInputError, match=C.SEED_ENV_VAR):
            C.resolve_config()

    def test_env_absent_gives_default(self, monkeypatch):
        monkeypatch.delenv(C.SEED_ENV_VAR, raising=False)
        assert C.resolve_config().seed == 0


class TestFormat:
    @pytest.mark.parametrize(
        "preset, text", [("desk", DESK_CONFIG_TXT), ("paper", PAPER_CONFIG_TXT)]
    )
    def test_preset_config_txt_is_golden(self, preset, text, monkeypatch):
        monkeypatch.delenv(C.SEED_ENV_VAR, raising=False)
        assert C.format_config(C.resolve_config(preset)) == text

    def test_renders_every_field_once(self):
        text = C.format_config(C.RunConfig())
        lines = [l for l in text.splitlines() if l]
        keys = [l.split("=")[0].strip() for l in lines]
        assert sorted(keys) == sorted(f.name for f in C.RunConfig.__dataclass_fields__.values())

    def test_net_widths_render_flat(self):
        text = C.format_config(C.RunConfig(net_widths=(4, 8, 2)))
        assert "net_widths = 4,8,2" in text

    def test_tuple_field_round_trips(self, tmp_path):
        cfg = C.RunConfig(net_widths=(6, 12, 4))
        path = tmp_path / "echo.cfg"
        path.write_text(C.format_config(cfg))
        assert "net_widths = 6,12,4\n" in path.read_text()
        assert C.resolve_config(file_values=C.parse_config_file(str(path))) == cfg

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dataset", "my data #1.tcpd"),  # would read back as "my data"
            ("dataset", "#data.tcpd"),
            ("out_dir", " run0"),  # would read back as "run0"
            ("out_dir", "run0\t"),
            ("out_dir", "run\n0"),
            ("dataset", "d\r.tcpd"),
            ("lambda_mode", "fixed:0.5 "),
            ("out_dir", "bad\udcff"),  # the byte 0xff of a path, surrogate-escaped
        ],
        ids=[
            "hash-after-space",
            "leading-hash",
            "leading-space",
            "trailing-tab",
            "newline",
            "carriage-return",
            "trailing-space",
            "not-utf8",
        ],
    )
    def test_value_that_would_not_read_back_is_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} "):
            C.format_config(C.RunConfig(**{field: value}))

    @pytest.mark.parametrize(
        "value",
        ["my data.tcpd", "data#1.tcpd", "a = b", "run 0#x", "données/é.tcpd"],
        ids=["inner-space", "inner-hash", "equals-sign", "hash-after-digit", "non-ascii"],
    )
    def test_inner_space_and_hash_round_trip(self, value, tmp_path):
        cfg = C.RunConfig(dataset=value, out_dir=value)
        path = tmp_path / "echo.cfg"
        path.write_text(C.format_config(cfg), encoding="utf-8")
        assert C.resolve_config(file_values=C.parse_config_file(str(path))) == cfg
