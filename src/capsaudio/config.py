"""RunConfig: every open hyperparameter, pinned in one serializable record.

Config files are UTF-8 `key=value` lines. Parsing is strict both ways:
unknown keys and missing keys are ConfigErrors, so a saved artifact always
carries the complete effective configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .atomic import write_text
from .errors import ConfigError

_MODELS = ("caps", "lstm", "att")
_MODES = ("single", "multi")


@dataclass
class RunConfig:
    model: str = "caps"
    caps_dim: int = 16
    routing_iters: int = 3
    use_decoder: bool = False
    recon_weight: float = 0.1
    lambda_: float = 0.5       # serialized as "lambda"
    hidden_size: int = 64      # per LSTM direction
    dropout: float = 0.3
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    T_fix: int = 40
    seed: int = 0
    mode: str = "single"
    threshold: float = 0.5


def _key_of(field_name: str) -> str:
    return "lambda" if field_name == "lambda_" else field_name


_FIELDS = {(_key_of(f.name)): f for f in fields(RunConfig)}


def validate(cfg: RunConfig) -> None:
    checks = [
        (cfg.model in _MODELS, f"model must be one of {_MODELS}, got {cfg.model!r}"),
        (cfg.mode in _MODES, f"mode must be one of {_MODES}, got {cfg.mode!r}"),
        (cfg.caps_dim >= 2, f"caps_dim must be >= 2, got {cfg.caps_dim}"),
        (cfg.routing_iters >= 1, f"routing_iters must be >= 1, got {cfg.routing_iters}"),
        (0.0 <= cfg.dropout < 1.0, f"dropout must be in [0, 1), got {cfg.dropout}"),
        (0 < cfg.lr < math.inf, f"lr must be in (0, inf), got {cfg.lr}"),
        (cfg.batch_size >= 1, f"batch_size must be >= 1, got {cfg.batch_size}"),
        (cfg.epochs >= 0, f"epochs must be >= 0, got {cfg.epochs}"),
        (cfg.T_fix >= 1, f"T_fix must be >= 1, got {cfg.T_fix}"),
        (0 <= cfg.recon_weight < math.inf,
         f"recon_weight must be in [0, inf), got {cfg.recon_weight}"),
        (0 < cfg.lambda_ < math.inf, f"lambda must be in (0, inf), got {cfg.lambda_}"),
        (cfg.hidden_size >= 1, f"hidden_size must be >= 1, got {cfg.hidden_size}"),
        (0.0 < cfg.threshold < 1.0, f"threshold must be in (0, 1), got {cfg.threshold}"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def _parse_value(key: str, raw: str):
    f = _FIELDS[key]
    raw = raw.strip()
    if f.type == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if f.type == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if f.type == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    return raw


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{_key_of(f.name)}={value}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> RunConfig:
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _parse_value(key, raw)
    missing = set(_FIELDS) - set(seen)
    if missing:
        raise ConfigError(f"missing keys: {', '.join(sorted(missing))}")
    cfg = RunConfig(**{_FIELDS[k].name: v for k, v in seen.items()})
    validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_text(fh.read())


def save_config(path, cfg: RunConfig) -> None:
    write_text(path, config_to_text(cfg))


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply `key=value` strings on top of a loaded config."""
    out = replace(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(out, _FIELDS[key].name, _parse_value(key, raw))
    validate(out)
    return out
