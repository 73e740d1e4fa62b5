"""RunConfig: every open hyperparameter, pinned in one serializable record.

A RunConfig is frozen and checks itself when made (from a file, from
overrides, or through RunConfig(...) or dataclasses.replace), so an
invalid one never exists. Config files are UTF-8 `key=value` lines, a
leading byte-order mark skipped. Parsing is strict both ways: unknown keys
and missing keys are ConfigErrors, so a saved artifact always carries the
complete effective configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .atomic import write_text
from .errors import ConfigError

_MODELS = ("caps", "lstm", "att")
_MODES = ("single", "multi")


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        checks = [
            (self.model in _MODELS, f"model must be one of {_MODELS}, got {self.model!r}"),
            (self.mode in _MODES, f"mode must be one of {_MODES}, got {self.mode!r}"),
            (self.caps_dim >= 2, f"caps_dim must be >= 2, got {self.caps_dim}"),
            (self.routing_iters >= 1, f"routing_iters must be >= 1, got {self.routing_iters}"),
            (0.0 <= self.dropout < 1.0, f"dropout must be in [0, 1), got {self.dropout}"),
            (0 < self.lr < math.inf, f"lr must be in (0, inf), got {self.lr}"),
            (self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.T_fix >= 1, f"T_fix must be >= 1, got {self.T_fix}"),
            (0 <= self.recon_weight < math.inf,
             f"recon_weight must be in [0, inf), got {self.recon_weight}"),
            (0 < self.lambda_ < math.inf, f"lambda must be in (0, inf), got {self.lambda_}"),
            (self.hidden_size >= 1, f"hidden_size must be >= 1, got {self.hidden_size}"),
            (0.0 < self.threshold < 1.0, f"threshold must be in (0, 1), got {self.threshold}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


def _key_of(field_name: str) -> str:
    return "lambda" if field_name == "lambda_" else field_name


_FIELDS = {(_key_of(f.name)): f for f in fields(RunConfig)}


def _parse_item(item: str, where: str) -> tuple[str, object]:
    """The key and typed value of one `key=value` item; a malformed item, an
    unknown key or a bad value raises ConfigError prefixed with where."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, raw = item.split("=", 1)
    key, raw = key.strip(), raw.strip()
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kind = _FIELDS[key].type
    if kind == "int":
        try:
            return key, int(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return key, float(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key}: expected a number, got {raw!r}") from None
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return key, True
        if raw.lower() in ("false", "0", "no"):
            return key, False
        raise ConfigError(f"{where}: {key}: expected true/false, got {raw!r}")
    return key, raw


def _by_field(items: dict[str, object]) -> dict[str, object]:
    return {_FIELDS[key].name: value for key, value in items.items()}


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
        key, value = _parse_item(line, f"line {lineno}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value
    missing = set(_FIELDS) - set(seen)
    if missing:
        raise ConfigError(f"missing keys: {', '.join(sorted(missing))}")
    return RunConfig(**_by_field(seen))


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    return config_from_text(text)


def save_config(path, cfg: RunConfig) -> None:
    write_text(path, config_to_text(cfg))


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """cfg with `key=value` strings applied in order; a repeated key wins last."""
    return replace(cfg, **_by_field(dict(_parse_item(item, "override")
                                         for item in overrides)))
