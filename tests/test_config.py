"""Config file parsing, preset merging, and seed fallback."""

from dataclasses import fields

import numpy as np
import pytest

from topodesc import config as C
from topodesc.errors import InvalidArgumentError, InvalidInputError
from topodesc.loss import LossConfig


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
        assert isinstance(cfg, LossConfig)
        loss_fields = [f.name for f in fields(LossConfig)]
        assert [f.name for f in fields(cfg)][: len(loss_fields)] == loss_fields
        assert (cfg.margin, cfg.k, cfg.lambda_r) == (0.75, 5, 0.05)
        assert cfg.lambda_floor == LossConfig().lambda_floor
        with pytest.raises(InvalidArgumentError, match="lambda_floor"):
            C.RunConfig(lambda_floor=0.0)  # LossConfig's checks run too

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


class TestConfigFile:
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

    def test_net_widths_file_and_flag_share_one_parser(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("net_widths = 6,,16,8\n")
        with pytest.raises(InvalidArgumentError) as from_file:
            C.parse_config_file(str(path))
        with pytest.raises(InvalidArgumentError) as from_flag:
            C.parse_net_widths("6,,16,8")
        assert str(from_file.value) == str(from_flag.value)
        assert "comma-separated integers" in str(from_flag.value)


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
    def test_renders_every_field_once(self):
        text = C.format_config(C.RunConfig())
        lines = [l for l in text.splitlines() if l]
        keys = [l.split("=")[0].strip() for l in lines]
        assert sorted(keys) == sorted(f.name for f in C.RunConfig.__dataclass_fields__.values())

    def test_net_widths_render_flat(self):
        text = C.format_config(C.RunConfig(net_widths=(4, 8, 2)))
        assert "net_widths = 4,8,2" in text

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
        ],
        ids=[
            "hash-after-space",
            "leading-hash",
            "leading-space",
            "trailing-tab",
            "newline",
            "carriage-return",
            "trailing-space",
        ],
    )
    def test_value_that_would_not_read_back_is_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} "):
            C.format_config(C.RunConfig(**{field: value}))

    @pytest.mark.parametrize(
        "value",
        ["my data.tcpd", "data#1.tcpd", "a = b", "run 0#x"],
        ids=["inner-space", "inner-hash", "equals-sign", "hash-after-digit"],
    )
    def test_inner_space_and_hash_round_trip(self, value, tmp_path):
        cfg = C.RunConfig(dataset=value, out_dir=value)
        path = tmp_path / "echo.cfg"
        path.write_text(C.format_config(cfg))
        assert C.resolve_config(file_values=C.parse_config_file(str(path))) == cfg
