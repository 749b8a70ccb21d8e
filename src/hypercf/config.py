"""Run configuration: typed fields, validation, and the flat key=value file
format used by the command line (line-stable for easy diffing)."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

ABLATIONS = ("pos", "trans", "deeph", "highh", "hyper", "meta", "sal")
DROPOUT_CHOICES = (0.0, 0.25, 0.5, 0.75)


class ConfigError(ValueError):
    """Invalid or unknown configuration values."""


def normalize_flag(name: str) -> str:
    flag = name.strip().lstrip("-").lower()
    if flag not in ABLATIONS:
        raise ConfigError(
            f"unknown ablation flag {name!r}; expected one of {ABLATIONS}")
    return flag


@dataclass
class Config:
    """Model and training settings; defaults follow the reference setup."""

    d: int = 32
    hyperedges: int = 128       # K
    layers: int = 2             # L
    heads: int = 2              # H
    lambda1: float = 1e-3       # self-augmented loss weight
    lambda2: float = 1e-5      # squared-Frobenius regularization weight
    batch: int = 32
    lr: float = 1e-3
    decay: float = 0.96         # per-epoch learning-rate factor
    dropout: float = 0.25
    epochs: int = 50
    seed: int = 0
    slope: float = 0.5          # leaky slope of every activation
    init_scale: float = 0.1
    ablate: tuple = ()

    pairs_main: int = 0              # 0: use batch size
    pairs_sal: int = 0
    patience: int = 0                # 0: no early stopping
    eval_every: int = 1

    # paths (command line / config file plumbing)
    data: str = ""
    out: str = ""

    @property
    def ablations(self) -> frozenset:
        return frozenset(normalize_flag(f) for f in self.ablate)

    @property
    def effective_layers(self) -> int:
        return 1 if "highh" in self.ablations else self.layers

    @property
    def main_pair_count(self) -> int:
        return self.pairs_main or self.batch

    @property
    def sal_pair_count(self) -> int:
        return self.pairs_sal or self.batch

    def validate(self) -> "Config":
        for key in ("lr", "decay", "lambda1", "lambda2", "slope",
                    "init_scale"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if value <= 0 and key != "init_scale":
                raise ConfigError(f"{key} must be positive, got {value}")
        if self.d <= 0 or self.heads <= 0 or self.d % self.heads != 0:
            raise ConfigError(
                f"embedding dim {self.d} must be a positive multiple of "
                f"heads {self.heads}")
        if not 1 <= self.layers <= 3:
            raise ConfigError(f"layers must be 1, 2 or 3, got {self.layers}")
        if self.hyperedges < 1:
            raise ConfigError("need at least one hyperedge")
        if not 32 <= self.batch <= 512:
            raise ConfigError(f"batch size {self.batch} outside [32, 512]")
        if self.dropout not in DROPOUT_CHOICES:
            raise ConfigError(
                f"dropout must be one of {DROPOUT_CHOICES}, got {self.dropout}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        for key, low in (("seed", 0), ("eval_every", 1), ("pairs_main", 0),
                         ("pairs_sal", 0), ("patience", 0), ("init_scale", 0)):
            if getattr(self, key) < low:
                raise ConfigError(
                    f"{key} must be >= {low}, got {getattr(self, key)}")
        self.ablations  # raises on unknown flags
        for f in fields(self):
            text = getattr(self, f.name)
            # values the `key = value` text format could not read back
            if isinstance(text, str) and (text != text.strip() or "#" in text
                                          or len(text.splitlines()) > 1):
                raise ConfigError(f"{f.name}: {text!r} has a '#', a line "
                                  f"break, or leading or trailing whitespace")
        return self


def _parse_value(field_type, raw: str, key: str):
    raw = raw.strip()
    if field_type in (int, float):
        try:
            return field_type(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {field_type.__name__}, "
                              f"got {raw!r}") from None
    if field_type is tuple:
        return tuple(split_list(raw))
    return raw


def split_list(raw: str) -> list:
    """The comma-separated parts of ``raw``, each stripped, empty parts
    dropped: how a tuple value and every list flag are read."""
    return [part.strip() for part in raw.split(",") if part.strip()]


def config_from_mapping(mapping: dict, base: Config = None) -> Config:
    base = base or Config()
    # every field has a default, and its type is the type file values parse to
    types = {f.name: type(f.default) for f in fields(Config)}
    updates = {}
    for key, raw in mapping.items():
        if key not in types:
            raise ConfigError(f"unknown configuration key {key!r}")
        updates[key] = _parse_value(types[key], raw, key)
    return replace(base, **updates)


def parse_config_text(text: str, base: Config = None,
                      source: str = "<config>") -> Config:
    """Parse the flat `key = value` format; '#' starts a comment."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        mapping[key.strip()] = raw.strip()
    return config_from_mapping(mapping, base)


def load_config(path: str, base: Config = None) -> Config:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base, source=path)


def format_value(value) -> str:
    """A field value as its `key = value` line spells it."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def format_config(cfg: Config) -> str:
    """Serialize as one `key = value` line per field, field order fixed."""
    return "".join(f"{f.name} = {format_value(getattr(cfg, f.name))}\n"
                   for f in fields(Config))
