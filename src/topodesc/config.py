"""Run configuration: presets, flat key=value config files, and precedence.

A config-file key is a RunConfig field name, and config.txt renders every
field, so a run's config.txt reproduces it.

Precedence is flags over file values over preset defaults. The seed
additionally falls back to the TCDESC_SEED environment variable when
neither a flag nor a file provides one.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError

SEED_ENV_VAR = "TCDESC_SEED"
PRECISIONS = ("double", "single")
GRADIENT_MODES = ("through-weights", "detached", "off")
# The str fields that take one of a few values.
FIELD_CHOICES = {"topology_gradient_mode": GRADIENT_MODES, "precision": PRECISIONS}


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs, resolvable from preset/file/flags.

    The defaults are the desk preset's. lambda_n0 is the iteration where
    the lambda schedule starts decaying, lambda_N the decay interval,
    lambda_r the per-interval decrement, and lambda_floor the smallest
    blend value; lambda_mode is "dynamic" (the schedule) or
    "fixed:<value>". topology_gradient_mode selects whether gradients flow
    through the affine fit ("through-weights"), treat the fitted weights as
    constants ("detached"), or skip the topology term entirely ("off").
    topology_report_every sets how often a lambda == 1 step computes the
    topology distance it logs: only at iterations that are a multiple of it.
    The term's weight 1 - lambda is 0 there, so the other steps train as
    "off" does, to the same bits, and log nan for it.
    """

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
    lambda_mode: str = "dynamic"
    topology_report_every: int = 1

    def __post_init__(self):
        if not 0 < self.margin < np.inf:
            raise InvalidArgumentError(f"margin must be positive and finite, got {self.margin}")
        if self.k < 1:
            raise InvalidArgumentError(f"k must be >= 1, got {self.k}")
        if self.lambda_n0 < 0 or self.lambda_N < 1:
            raise InvalidArgumentError(
                f"schedule needs lambda_n0 >= 0 and lambda_N >= 1, got {self.lambda_n0}, {self.lambda_N}"
            )
        if not 0 < self.lambda_r < np.inf:
            raise InvalidArgumentError(f"lambda_r must be positive and finite, got {self.lambda_r}")
        if not 0 < self.lambda_floor <= 1:
            raise InvalidArgumentError(f"lambda_floor must be in (0, 1], got {self.lambda_floor}")
        for name, allowed in FIELD_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise InvalidArgumentError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
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
        if self.lambda_mode != "dynamic":
            self.fixed_lambda()
        if self.topology_report_every < 1:
            raise InvalidArgumentError(
                f"topology_report_every must be >= 1, got {self.topology_report_every}"
            )

    def fixed_lambda(self) -> float:
        """The blend value of a "fixed:<value>" lambda_mode, validated."""
        if not self.lambda_mode.startswith("fixed:"):
            raise InvalidArgumentError(
                f"lambda_mode must be 'dynamic' or 'fixed:<value>', got {self.lambda_mode!r}"
            )
        raw = self.lambda_mode.removeprefix("fixed:")
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not 0.0 <= value <= 1.0:
            raise InvalidArgumentError(f"fixed lambda must be a number in [0, 1], got {raw!r}")
        return value

    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


# The desk preset is the documented default: it finishes in minutes on one
# core. Its schedule constants are scaled so the blend starts to decay within
# a 2000-iteration run, but not to the paper preset's shape: the paper preset
# reaches the 0.5 floor at iteration 240,001 of 250,000, while a desk run ends
# at lambda = 0.625 and would reach the floor only at iteration 2,401
# (lambda_n0 = 400, lambda_N = 80 would mirror the paper's shape).
DESK_PRESET: dict = {}

# Full-scale constants; running this preset is a deliberate user choice.
PAPER_PRESET = {
    "k": 20,
    "lambda_n0": 50_000,
    "lambda_N": 10_000,
    "batch_size": 1024,
    "iterations": 250_000,
    "topology_report_every": 100,
}

PRESETS = {"desk": DESK_PRESET, "paper": PAPER_PRESET}

# A key's value parses as the type of its field's default.
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


_COMMENT = re.compile(r"(?:^|\s)#")
# A string value that parse_config_file would not read back as itself.
_UNREADABLE = re.compile(r"[\r\n]|^\s|\s$|(?:^|\s)#")


def parse_value(key: str, raw: str):
    """Config-file or flag text for key, parsed as the type of its field's default.

    A tuple field takes comma-separated integers, as in "16,64,32".
    """
    kind = type(_DEFAULTS[key])
    try:
        return tuple(int(part) for part in raw.split(",")) if kind is tuple else kind(raw)
    except ValueError:
        expected = "comma-separated integers" if kind is tuple else kind.__name__
        message = f"cannot parse value {raw!r} for key {key!r}: expected {expected}"
        raise InvalidInputError(message) from None


def resolve_seed(seed: int | None) -> int:
    """seed if given, else TCDESC_SEED, else 0; a negative seed is rejected."""
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise InvalidInputError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    return seed


def parse_config_file(path: str) -> dict:
    """Read flat `key = value` lines; unknown keys fail.

    A `#` at the start of a line or after whitespace starts a comment; any
    other `#` belongs to the value. The file is UTF-8 text, as
    format_config writes it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: config file is not UTF-8 text") from None
    values: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InvalidInputError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _DEFAULTS:
            raise InvalidInputError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = parse_value(key, raw)
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
            if key not in _DEFAULTS:
                raise InvalidInputError(f"unknown config key {key!r}")
            merged[key] = value
    merged["seed"] = resolve_seed(merged.get("seed"))
    return RunConfig(**merged)


def format_config(cfg: RunConfig) -> str:
    """Render the effective configuration in config-file syntax.

    Raises InvalidArgumentError naming the field when a string value would
    not parse back to itself: one with a line break, leading or trailing
    whitespace, or a `#` at its start or after whitespace, or one that does
    not encode as UTF-8 (a path holding bytes that are not UTF-8).
    """
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(w) for w in value)
        elif isinstance(value, str):
            if _UNREADABLE.search(value):
                raise InvalidArgumentError(
                    f"{f.name} {value!r} would not read back from config.txt: it has a line "
                    "break, leading or trailing whitespace, or a '#' that starts a comment"
                )
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise InvalidArgumentError(
                    f"{f.name} {value!r} would not read back from config.txt: it is not UTF-8"
                ) from None
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
