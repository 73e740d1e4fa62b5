import numpy as np
import pytest

from capsaudio import checkpoint
from capsaudio.checkpoint import load_checkpoint, save_checkpoint
from capsaudio.config import RunConfig
from capsaudio.errors import FormatError
from capsaudio.features import ScalerParams
from capsaudio.layers import Module
from capsaudio.models import build_model
from capsaudio.train import evaluate, load_blocks, load_trained, model_blocks, train
from test_train import separable_dataset, tiny_cfg


def test_block_round_trip_bit_exact(tmp_path, rng):
    cfg = RunConfig()
    blocks = {
        "w.matrix": rng.normal(size=(3, 4)),
        "b.vector": rng.normal(size=5),
        "scalar": np.array(3.14159),
        "cube": rng.normal(size=(2, 3, 4, 5)),
    }
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, cfg, blocks)
    cfg2, back = load_checkpoint(path)
    assert cfg2 == cfg
    assert set(back) == set(blocks)
    for k in blocks:
        assert back[k].shape == blocks[k].shape
        assert np.array_equal(back[k], blocks[k])
        assert back[k].tobytes() == blocks[k].tobytes()


def test_magic_and_version(tmp_path):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"x": np.ones(2)})
    raw = path.read_bytes()
    assert raw[:4] == b"CPSN"
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncated_checkpoint(tmp_path):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"x": np.ones(4)})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"x": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_failed_save_keeps_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"a": np.ones(3), "b": np.zeros(2)})
    before = path.read_bytes()
    real_pack = checkpoint._pack_block
    packed = []

    def pack_then_fail(name, arr):
        if packed:
            raise OSError("disk full")
        packed.append(name)
        return real_pack(name, arr)

    monkeypatch.setattr(checkpoint, "_pack_block", pack_then_fail)
    with pytest.raises(OSError):
        save_checkpoint(path, RunConfig(), {"a": np.full(3, 2.0), "b": np.ones(2)})
    assert packed == ["a"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.cpsn"]


@pytest.mark.parametrize("model", ["caps", "lstm", "att"])
def test_trained_model_round_trip_preserves_accuracy(tmp_path, model):
    ds = separable_dataset(jitter=0.05)
    cfg = tiny_cfg(model=model, epochs=4, dropout=0.2)
    trained, _ = train(cfg, ds, ds)
    trained.scaler = ScalerParams(np.zeros(4), np.ones(4))
    before, confusion_before = evaluate(trained, ds)

    path = tmp_path / "m.cpsn"
    trained.save(path)
    loaded = load_trained(path)
    after, confusion_after = evaluate(loaded, ds)
    assert after == before  # exact, not approximate
    np.testing.assert_array_equal(confusion_after, confusion_before)
    assert loaded.cfg == cfg

    # parameters and state restored bit-exactly
    for name, tensor in trained.model.params().items():
        assert np.array_equal(loaded.model.params()[name].data, tensor.data)
    np.testing.assert_array_equal(loaded.model.bn.running_mean,
                                  trained.model.bn.running_mean)
    np.testing.assert_array_equal(loaded.scaler.minimum, trained.scaler.minimum)


def test_save_load_save_is_stable(tmp_path):
    ds = separable_dataset()
    trained, _ = train(tiny_cfg(epochs=1), ds, ds)
    trained.scaler = ScalerParams(np.zeros(4), np.ones(4))
    trained.save(tmp_path / "a.cpsn")
    load_trained(tmp_path / "a.cpsn").save(tmp_path / "b.cpsn")
    assert (tmp_path / "a.cpsn").read_bytes() == (tmp_path / "b.cpsn").read_bytes()


# --- parameter naming ---------------------------------------------------------

_LSTMS = [f"lstm{k}.{d}.{w}" for k in (1, 2) for d in ("fwd", "bwd")
          for w in ("Wx", "Wh", "b")]


@pytest.mark.parametrize("model, decoder, tail", [
    ("caps", False, ["caps.W"]),
    ("caps", True, ["caps.W", "decoder.fc1.W", "decoder.fc1.b", "decoder.fc2.W",
                    "decoder.fc2.b", "decoder.out.W", "decoder.out.b"]),
    ("lstm", False, ["head.W", "head.b"]),
    ("att", False, ["head.W", "head.b", "att.W", "att.v"]),
])
def test_param_and_state_names_in_order(model, decoder, tail):
    # These names and their order are the checkpoint block order, the Adam
    # moment keys and the benchmark's parameter digest.
    cfg = tiny_cfg(model=model, use_decoder=decoder)
    net = build_model(cfg, 4, 2, np.random.default_rng(0))
    assert list(net.params()) == ["bn.gamma", "bn.beta"] + _LSTMS + tail
    assert list(net.state()) == ["bn.running_mean", "bn.running_var"]
    assert list(model_blocks(net)) == (list(net.params())
                                       + ["state.bn.running_mean", "state.bn.running_var"])


def _attribute_names(module, prefix=""):
    out = set()
    for key, value in vars(module).items():
        out.add(prefix + key)
        if isinstance(value, Module):
            out |= _attribute_names(value, f"{prefix}{key}.")
    return out


@pytest.mark.parametrize("model, decoder", [("caps", False), ("caps", True),
                                            ("lstm", False), ("att", False)])
def test_load_blocks_restores_another_seed_bit_exactly(model, decoder):
    cfg = tiny_cfg(model=model, use_decoder=decoder)
    source = build_model(cfg, 4, 2, np.random.default_rng(1))
    source.bn.running_mean = np.random.default_rng(2).normal(size=4)
    source.bn.running_var = np.random.default_rng(3).uniform(0.5, 2.0, size=4)
    target = build_model(cfg, 4, 2, np.random.default_rng(0))
    attributes = _attribute_names(target)
    blocks = model_blocks(source)
    blocks["state.stray"] = np.ones(3)  # not the model's: must not be set
    load_blocks(target, blocks)
    assert _attribute_names(target) == attributes
    for name, t in source.params().items():
        assert target.params()[name].data.tobytes() == t.data.tobytes()
        assert target.params()[name].requires_grad
    for name, arr in source.state().items():
        assert target.state()[name].tobytes() == arr.tobytes()
        assert target.state()[name] is not arr  # copied, not shared


def test_load_blocks_missing_block_raises():
    net = build_model(tiny_cfg(), 4, 2, np.random.default_rng(0))
    blocks = model_blocks(net)
    del blocks["state.bn.running_var"]
    with pytest.raises(KeyError):
        load_blocks(net, blocks)
