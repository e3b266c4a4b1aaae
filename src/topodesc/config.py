"""Run configuration: presets, flat key=value config files, and precedence.

Precedence is flags over file values over preset defaults. The seed
additionally falls back to the TCDESC_SEED environment variable when
neither a flag nor a file provides one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError
from .loss import LossConfig

SEED_ENV_VAR = "TCDESC_SEED"
PRECISIONS = ("double", "single")


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs, resolvable from preset/file/flags."""

    margin: float = 1.0
    k: int = 8
    lambda_n0: int = 500
    lambda_N: int = 100
    lambda_r: float = 0.025
    lambda_floor: float = 0.5
    topology_gradient_mode: str = "through-weights"
    net_widths: tuple[int, ...] = (16, 64, 64, 32)
    batch_size: int = 64
    iterations: int = 2000
    lr_start: float = 0.1
    lr_end: float = 0.0
    seed: int = 0
    dataset: str = ""
    out_dir: str = ""
    precision: str = "double"

    def __post_init__(self):
        self.loss_config()
        if len(self.net_widths) < 2 or any(w < 1 for w in self.net_widths):
            raise InvalidArgumentError(f"net_widths needs >= 2 positive entries, got {self.net_widths}")
        if self.batch_size < 2:
            raise InvalidArgumentError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.iterations < 1:
            raise InvalidArgumentError(f"iterations must be >= 1, got {self.iterations}")
        if not (0 <= self.lr_start < np.inf and 0 <= self.lr_end < np.inf):
            raise InvalidArgumentError(
                f"learning rates must be finite and >= 0, got {self.lr_start}, {self.lr_end}"
            )
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.precision not in PRECISIONS:
            raise InvalidArgumentError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")

    def loss_config(self) -> LossConfig:
        return LossConfig(
            margin=self.margin,
            k=self.k,
            lambda_n0=self.lambda_n0,
            lambda_N=self.lambda_N,
            lambda_r=self.lambda_r,
            lambda_floor=self.lambda_floor,
            topology_gradient_mode=self.topology_gradient_mode,
        )

    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


# The desk preset is the documented default: it finishes in minutes on one
# core. The schedule constants are scaled so the blend actually decays
# within a 2000-iteration run, mirroring the full-scale shape.
DESK_PRESET: dict = {}

# Full-scale constants; running this preset is a deliberate user choice.
PAPER_PRESET = {
    "k": 20,
    "lambda_n0": 50_000,
    "lambda_N": 10_000,
    "batch_size": 1024,
    "iterations": 250_000,
}

PRESETS = {"desk": DESK_PRESET, "paper": PAPER_PRESET}

_INT_KEYS = {"k", "lambda_n0", "lambda_N", "batch_size", "iterations", "seed"}
_FLOAT_KEYS = {"margin", "lambda_r", "lambda_floor", "lr_start", "lr_end"}
_STR_KEYS = {"topology_gradient_mode", "dataset", "out_dir", "precision"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"net_widths"}


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "net_widths":
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise InvalidInputError(f"cannot parse value {raw!r} for key {key!r}") from None
    return raw


def parse_config_file(path: str) -> dict:
    """Read flat `key = value` lines; `#` starts a comment; unknown keys fail."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise InvalidInputError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _ALL_KEYS:
                raise InvalidInputError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def resolve_config(
    preset: str = "desk",
    file_values: dict | None = None,
    flag_values: dict | None = None,
) -> RunConfig:
    """Merge preset defaults, config-file values, and flag overrides."""
    if preset not in PRESETS:
        raise InvalidArgumentError(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
    merged = dict(PRESETS[preset])
    merged_sources = [file_values or {}, flag_values or {}]
    for source in merged_sources:
        for key, value in source.items():
            if value is None:
                continue
            if key not in _ALL_KEYS:
                raise InvalidInputError(f"unknown config key {key!r}")
            merged[key] = value
    if "seed" not in merged and SEED_ENV_VAR in os.environ:
        raw = os.environ[SEED_ENV_VAR]
        try:
            merged["seed"] = int(raw)
        except ValueError:
            raise InvalidInputError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None
    return RunConfig(**merged)


def format_config(cfg: RunConfig) -> str:
    """Render the effective configuration in config-file syntax."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "net_widths":
            value = ",".join(str(w) for w in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
