"""Run configuration: a flat key = value text format that round-trips.

Unknown keys are rejected up front; command-line overrides win over file
values. ``resolved_text`` writes every field back out, so the echo written
next to a run's outputs is itself a loadable config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._util import ConfigError, read_input

VARIANTS = ("abs", "softplus")
DATASETS = ("synth", "idx")
ALTERNATIONS = ("iteration", "epoch")


@dataclass
class RunConfig:
    # dataset
    dataset: str = "synth"
    classes: int = 8
    per_class: int = 64
    height: int = 32
    width: int = 32
    channels: int = 1
    noise: float = 0.12
    idx_images: str = ""
    idx_labels: str = ""
    labeled_frac: float = 0.1
    # model
    hidden: tuple[int, ...] = (256, 128)
    proj_hidden: int = 64
    embed_dim: int = 32
    pmnn_hidden: int = 16
    # losses
    tau: float = 0.2
    queue_capacity: int = 4096
    variant: str = "softplus"
    lengths: tuple[int, ...] = (1,)
    magnitude: float = 0.5
    # optimization
    momentum_coef: float = 0.99
    eta_e: float = 0.03
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    eta_d: float = 0.01
    probe_lr: float = 0.1
    epochs: int = 20
    batch_size: int = 64
    alternation: str = "iteration"
    use_pmnn: bool = True
    const_deviation: float = 0.5
    # linear evaluation
    eval_epochs: int = 100
    eval_lr: float = 1.0
    eval_batch: int = 64
    # bookkeeping
    seed: int = 0
    out_dir: str = "runs/default"

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            # NaN fails no ordered comparison below, so it is caught here
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dataset not in DATASETS:
            raise ConfigError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.dataset == "idx" and (not self.idx_images or not self.idx_labels):
            raise ConfigError("idx dataset requires idx_images and idx_labels paths")
        if self.classes < 2:
            raise ConfigError("classes must be >= 2")
        if self.per_class < 1:
            raise ConfigError("per_class must be >= 1")
        if min(self.height, self.width) < 2:
            raise ConfigError(f"height and width must be >= 2, got {self.height}, {self.width}")
        if self.channels not in (1, 3):
            raise ConfigError("channels must be 1 or 3")
        if self.noise < 0:
            raise ConfigError("noise must be >= 0")
        if not 0.0 < self.labeled_frac <= 1.0:
            raise ConfigError("labeled_frac must lie in (0, 1]")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden must be a non-empty list of positive widths")
        for name in ("proj_hidden", "embed_dim", "pmnn_hidden", "queue_capacity",
                     "epochs", "batch_size", "eval_epochs", "eval_batch"):
            value = getattr(self, name)
            if (name == "epochs" and value < 0) or (name != "epochs" and value < 1):
                raise ConfigError(f"{name} must be positive, got {value}")
        for name in ("tau", "eta_e", "eta_d", "probe_lr", "eval_lr", "magnitude"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.magnitude > 1.0:
            raise ConfigError("magnitude must lie in (0, 1]")
        if not 0.0 <= self.momentum_coef <= 1.0:
            raise ConfigError("momentum_coef must lie in [0, 1]")
        if not 0.0 <= self.sgd_momentum < 1.0:
            raise ConfigError("sgd_momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.alternation not in ALTERNATIONS:
            raise ConfigError(f"alternation must be one of {ALTERNATIONS}")
        # a repeated length would be drawn more often than the others
        if (not self.lengths or any(l < 1 or l > 8 for l in self.lengths)
                or len(set(self.lengths)) < len(self.lengths)):
            raise ConfigError("lengths must be a non-empty subset of [1, 8], without repeats")
        if not -1.0 <= self.const_deviation <= 1.0:
            raise ConfigError("const_deviation must lie in [-1, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def input_dim(self) -> int:
        return self.height * self.width * self.channels


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, text: str):
    kind = _FIELD_TYPES[name]
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if kind == "tuple[int, ...]":
            return tuple(int(p) for p in text.split(",") if p.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"field {name!r}: cannot parse {text!r}") from exc


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, value))
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        return parse_config_text(read_input(path).decode("utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None


def resolved_text(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    for key, value in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, value))
    return cfg
