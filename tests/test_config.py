import os
from dataclasses import FrozenInstanceError, replace

import pytest

from capsaudio.cli import dispatch
from capsaudio.config import (RunConfig, apply_overrides, config_from_text,
                              config_to_text, load_config, save_config)
from capsaudio.errors import ConfigError


def test_round_trip_all_fields(tmp_path):
    cfg = RunConfig(model="att", caps_dim=8, routing_iters=5, use_decoder=True,
                    recon_weight=0.25, lambda_=1.0, hidden_size=48, dropout=0.15,
                    lr=5e-4, batch_size=7, epochs=3, T_fix=33, seed=42,
                    mode="multi", threshold=0.4)
    save_config(tmp_path / "c.cfg", cfg)
    assert load_config(tmp_path / "c.cfg") == cfg


def test_text_contains_every_key():
    text = config_to_text(RunConfig())
    for key in ("model", "caps_dim", "routing_iters", "use_decoder",
                "recon_weight", "lambda", "hidden_size", "dropout", "lr",
                "batch_size", "epochs", "T_fix", "seed", "mode", "threshold"):
        assert f"{key}=" in text


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_text(config_to_text(RunConfig()) + "bogus=1\n")


def test_missing_key_rejected():
    text = "\n".join(l for l in config_to_text(RunConfig()).splitlines()
                     if not l.startswith("seed="))
    with pytest.raises(ConfigError, match="missing"):
        config_from_text(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_text(config_to_text(RunConfig()) + "seed=9\n")


def test_bad_value_types():
    base = config_to_text(RunConfig())
    with pytest.raises(ConfigError):
        config_from_text(base.replace("epochs=50", "epochs=five"))
    with pytest.raises(ConfigError):
        config_from_text(base.replace("use_decoder=false", "use_decoder=maybe"))
    with pytest.raises(ConfigError):
        config_from_text(base.replace("lr=0.001", "lr=fast"))


@pytest.mark.parametrize("source", ["file", "override"])
@pytest.mark.parametrize("key,raw,expected", [
    ("epochs", "five", "an integer"), ("lr", "fast", "a number"),
    ("use_decoder", "maybe", "true/false"),
])
def test_bad_value_names_its_source(tmp_path, capsys, source, key, raw, expected):
    lines = config_to_text(RunConfig()).splitlines()
    path = tmp_path / "c.cfg"
    if source == "file":
        lineno = next(n for n, l in enumerate(lines, start=1) if l.startswith(f"{key}="))
        lines[lineno - 1] = f"{key}={raw}"
        where, overrides = f"line {lineno}", []
    else:
        where, overrides = "override", ["--set", f"{key}={raw}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"{where}: {key}: expected {expected}, got {raw!r}"
    with pytest.raises(ConfigError) as e:
        apply_overrides(load_config(path), overrides[1:])
    assert str(e.value) == message
    code = dispatch(["train", "--config", str(path), "--data", str(tmp_path),
                     "--out", str(tmp_path / "run"), *overrides])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field,value", [
    ("model", "cnn"), ("mode", "both"), ("caps_dim", 1), ("routing_iters", 0),
    ("dropout", 1.0), ("dropout", -0.1), ("lr", 0.0), ("batch_size", 0),
    ("epochs", -1), ("T_fix", 0), ("recon_weight", -0.5), ("lambda_", 0.0),
    ("hidden_size", 0), ("threshold", 0.0), ("threshold", 1.0),
    ("lr", float("inf")), ("recon_weight", float("inf")), ("lambda_", float("inf")),
    ("seed", -1),
])
def test_validation_bounds(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})


def test_config_is_frozen():
    cfg = RunConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.dropout = 2.0
    assert cfg == RunConfig()


def test_replace_checks_the_new_config():
    with pytest.raises(ConfigError, match=r"dropout must be in \[0, 1\), got 2.0"):
        replace(RunConfig(), dropout=2.0)


def test_overrides():
    cfg = apply_overrides(RunConfig(), ["routing_iters=5", "lambda=1.0",
                                        "model=lstm", "use_decoder=true"])
    assert cfg.routing_iters == 5
    assert cfg.lambda_ == 1.0
    assert cfg.model == "lstm"
    assert cfg.use_decoder is True


def test_override_unknown_key():
    with pytest.raises(ConfigError, match="^override: unknown key 'nope'$"):
        apply_overrides(RunConfig(), ["nope=1"])
    with pytest.raises(ConfigError,
                       match="^override: expected key=value, got 'no_equals_sign'$"):
        apply_overrides(RunConfig(), ["no_equals_sign"])


def test_repeated_override_wins_last():
    cfg = apply_overrides(RunConfig(), ["seed=1", "routing_iters=5", " seed = 7 "])
    assert cfg == replace(RunConfig(), seed=7, routing_iters=5)


def test_override_validates_result():
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["dropout=2.0"])


def test_config_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + config_to_text(RunConfig(seed=4)).encode("utf-8"))
    assert load_config(path) == RunConfig(seed=4)


def test_comments_ignored():
    cfg = config_from_text("# a comment\n" + config_to_text(RunConfig()))
    assert cfg == RunConfig()


def test_readme_config_example_parses():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    after = text[text.index("A config file pins every hyperparameter"):]
    block = after.split("```\n")[1]  # the first fenced block after that sentence
    assert config_from_text(block) == RunConfig()
