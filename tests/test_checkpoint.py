import re
import struct
import tracemalloc

import numpy as np
import pytest

from capsaudio import checkpoint
from capsaudio.autodiff import Graph
from capsaudio.checkpoint import load_checkpoint, save_checkpoint
from capsaudio.config import RunConfig, config_to_text
from capsaudio.errors import FormatError
from capsaudio.features import ScalerParams
from capsaudio.layers import Module, glorot
from capsaudio.models import build_model
from capsaudio.optim import Adam
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


# --- streamed loader: odd blocks, forged headers, array ownership -------------

def _header(n_blocks: int) -> bytes:
    """A valid file header (magic, version, default config) for n_blocks."""
    config = config_to_text(RunConfig()).encode("utf-8")
    return (b"CPSN" + struct.pack("<II", 1, len(config)) + config
            + struct.pack("<I", n_blocks))


def test_zero_d_and_zero_size_blocks_round_trip(tmp_path):
    blocks = {"scalar": np.array(-0.0), "empty": np.zeros((0,)),
              "empty3": np.zeros((2, 0, 3)), "after": np.arange(3.0)}
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), blocks)
    _, back = load_checkpoint(path)
    for name, arr in blocks.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_payload_cut_mid_block(tmp_path):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"a": np.ones(4), "b": np.ones(4)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-(40 + 16)])  # all of "b" and half of "a"'s 32-byte payload
    with pytest.raises(FormatError, match="'a' payload"):
        load_checkpoint(path)


def test_repeated_block_name_rejected(tmp_path, monkeypatch):
    path = tmp_path / "m.cpsn"
    x_block = struct.pack("<H1sBI", 1, b"x", 1, 2)  # block "x" of shape (2,)
    path.write_bytes(_header(2) + x_block + struct.pack("<2d", 1.0, 1.0)
                     + x_block + struct.pack("<2d", 2.0, 2.0))
    allocated = []
    real_empty = np.empty
    monkeypatch.setattr(checkpoint.np, "empty",
                        lambda *a, **k: allocated.append(a) or real_empty(*a, **k))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: duplicate block 'x'$"):
        load_checkpoint(path)
    assert len(allocated) == 1


@pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8, b"CPSN"])
def test_trailing_bytes_after_last_block(tmp_path, extra):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"x": np.array(1.0), "e": np.zeros((0,))})
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError, match=f"{len(extra)} trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("forged", [
    # one block "x" declaring (2**32-1,)**4 f64 values, far past int64
    lambda: _header(1) + struct.pack("<H1sB4I", 1, b"x", 4, *(2**32 - 1,) * 4) + b"\0" * 64,
    # a config length of 4 GiB
    lambda: b"CPSN" + struct.pack("<II", 1, 2**32 - 1) + b"\0" * 88,
], ids=["block_shape", "config_len"])
def test_forged_lengths_raise_before_allocating(tmp_path, forged):
    path = tmp_path / "m.cpsn"
    path.write_bytes(forged())
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="needs"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_missing_checkpoint_raises_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.cpsn")


def test_loaded_arrays_are_owned_aligned_and_separate(tmp_path, rng):
    blocks = {"w": rng.normal(size=(3, 5)), "v": rng.normal(size=7),
              "s": np.array(1.5), "c": rng.normal(size=(2, 3, 4))}
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), blocks)
    _, back = load_checkpoint(path)
    for arr in back.values():
        assert arr.dtype == np.float64
        assert arr.flags.aligned and arr.flags.c_contiguous
        assert arr.flags.writeable and arr.flags.owndata
    arrays = list(back.values())
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


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
        assert target.state()[name] is arr  # shared, not copied
        assert not arr.flags.writeable


def test_load_blocks_missing_block_raises():
    net = build_model(tiny_cfg(), 4, 2, np.random.default_rng(0))
    blocks = model_blocks(net)
    del blocks["state.bn.running_var"]
    with pytest.raises(KeyError):
        load_blocks(net, blocks)


# --- cold start: placeholders, load failures, bits ------------------------------

@pytest.mark.parametrize("model, decoder", [("caps", False), ("caps", True),
                                            ("lstm", False), ("att", False)])
def test_placeholder_build_has_seeded_names_and_shapes(model, decoder):
    cfg = tiny_cfg(model=model, use_decoder=decoder)
    seeded = [build_model(cfg, 4, 2, np.random.default_rng(s)) for s in (0, 1)]
    placeholder = build_model(cfg, 4, 2, None)
    assert getattr(placeholder, "decoder", None) is None  # training-only
    inference = {n: t.shape for n, t in seeded[0].params().items()
                 if not n.startswith("decoder.")}
    assert {n: t.shape for n, t in placeholder.params().items()} == inference
    assert list(placeholder.params()) == list(inference)
    assert list(placeholder.state()) == list(seeded[0].state())
    for name, arr in placeholder.state().items():
        assert arr.tobytes() == seeded[0].state()[name].tobytes()
    drawn = 0
    for name, t in placeholder.params().items():
        a, b = (s.params()[name].data for s in seeded)
        if np.array_equal(a, b):  # fixed init (BN gamma/beta, LSTM bias): kept
            assert t.data.tobytes() == a.tobytes()
        else:  # a Glorot draw: zero placeholder
            drawn += 1
            assert not t.data.any()
    assert drawn == len([n for n in placeholder.params() if n.endswith(("W", "Wx", "Wh", "v"))])


def _trained_checkpoint(tmp_path, model, **kw):
    ds = separable_dataset(jitter=0.05)
    trained, _ = train(tiny_cfg(model=model, epochs=2, **kw), ds, ds)
    trained.scaler = ScalerParams(np.zeros(4), np.ones(4))
    path = tmp_path / "m.cpsn"
    trained.save(path)
    return trained, path, ds


def _assert_read_only(model):
    arrays = {**{name: t.data for name, t in model.params().items()}, **model.state()}
    assert arrays
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("model, decoder", [("caps", False), ("caps", True),
                                            ("lstm", False), ("att", False)])
def test_parameters_and_state_cannot_be_written_in_place(tmp_path, model, decoder):
    cfg = tiny_cfg(model=model, use_decoder=decoder)
    net = build_model(cfg, 4, 2, np.random.default_rng(0))
    _assert_read_only(net)
    ds = separable_dataset()
    with Graph() as g:  # a training-mode BN forward, then an Adam step
        out = net.forward(ds.X[:4], training=True, rng=None, targets=ds.Y[:4])
    g.backward(out.loss)
    Adam(cfg.lr).step(net.params())
    _assert_read_only(net)
    trained, path, _ = _trained_checkpoint(tmp_path, model, use_decoder=decoder)
    _assert_read_only(trained.model)
    _assert_read_only(load_trained(path).model)


@pytest.mark.parametrize("old, new, message", [
    (b"model=caps", b"modex=cap", "unknown key 'modex'"),
    (b"caps_dim=16", b"caps_dim=-1", "caps_dim must be >= 2"),
])
def test_invalid_embedded_config_is_format_error(tmp_path, old, new, message):
    path = tmp_path / "m.cpsn"
    save_checkpoint(path, RunConfig(), {"x": np.ones(2)})
    path.write_bytes(path.read_bytes().replace(old, new, 1))  # same length
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*{message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("model, missing", [("caps", "lstm2.bwd.Wh"), ("caps", "caps.W"),
                                            ("att", "att.v"), ("lstm", "bn.beta"),
                                            ("lstm", "head.b"), ("caps", "bn.gamma"),
                                            ("caps", "state.bn.running_var")])
def test_load_trained_missing_parameter_block_raises(tmp_path, model, missing):
    trained, path, _ = _trained_checkpoint(tmp_path, model)
    cfg, blocks = load_checkpoint(path)
    del blocks[missing]
    save_checkpoint(path, cfg, blocks)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: block '{missing}'"):
        load_trained(path)


@pytest.mark.parametrize("model, name, shape", [
    ("caps", "lstm2.bwd.Wh", (3, 16)),
    ("caps", "caps.W", (6, 2, 2)),         # too few dims to give n_classes
    ("caps", "bn.gamma", ()),              # too few dims to give n_dims
    ("caps", "lstm1.fwd.b", (4, 4)),
    ("att", "att.v", (4,)),
    ("lstm", "head.b", (2, 1)),            # gives n_classes, but of the wrong rank
    ("lstm", "state.bn.running_mean", (5,)),
])
def test_load_trained_misshaped_block_raises(tmp_path, model, name, shape):
    _, path, _ = _trained_checkpoint(tmp_path, model)
    cfg, blocks = load_checkpoint(path)
    blocks[name] = np.zeros(shape)
    save_checkpoint(path, cfg, blocks)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: block '{name}'"):
        load_trained(path)


@pytest.mark.parametrize("model, decoder", [("caps", False), ("caps", True),
                                            ("lstm", False), ("att", False)])
def test_load_trained_scores_same_bits_as_trained(tmp_path, model, decoder):
    trained, path, ds = _trained_checkpoint(tmp_path, model, use_decoder=decoder)
    loaded = load_trained(path)
    assert loaded.scores(ds.X).tobytes() == trained.scores(ds.X).tobytes()


@pytest.mark.parametrize("model, decoder", [("caps", False), ("caps", True),
                                            ("lstm", False), ("att", False)])
def test_saved_blocks_are_the_blocks_load_trained_checks(tmp_path, model, decoder):
    trained, path, _ = _trained_checkpoint(tmp_path, model, use_decoder=decoder)
    _, saved = load_checkpoint(path)
    checked = model_blocks(build_model(trained.cfg, 4, 2, None), trained.scaler)
    assert list(saved) == list(checked)
    live = model_blocks(trained.model, trained.scaler)
    assert all(saved[name].tobytes() == live[name].tobytes() for name in saved)


def test_checkpoint_with_decoder_blocks_loads_without_decoder(tmp_path):
    trained, path, ds = _trained_checkpoint(tmp_path, "caps", use_decoder=True)
    old = tmp_path / "with_decoder.cpsn"  # laid out as checkpoints that keep the decoder
    save_checkpoint(old, trained.cfg, model_blocks(trained.model, trained.scaler))
    assert any(name.startswith("decoder.") for name in load_checkpoint(old)[1])
    loaded = load_trained(old)
    assert loaded.model.decoder is None
    assert loaded.scores(ds.X).tobytes() == trained.scores(ds.X).tobytes()


def test_glorot_placeholder_is_read_only_and_holds_no_memory():
    ph = glorot(None, (64, 256), 64, 256)
    assert ph.shape == (64, 256) and ph.dtype == np.float64
    assert ph.strides == (0, 0)
    assert not ph.flags.writeable
    assert not ph.any()
    with pytest.raises(ValueError):
        ph[0, 0] = 1.0


@pytest.mark.parametrize("model, decoder", [("caps", False), ("caps", True),
                                            ("lstm", False), ("att", False)])
def test_placeholders_are_views_and_load_trained_replaces_every_one(tmp_path, model,
                                                                     decoder):
    cfg = tiny_cfg(model=model, use_decoder=decoder)
    for name, t in build_model(cfg, 4, 2, None).params().items():
        if name.endswith(("W", "Wx", "Wh", "v")):  # Glorot-drawn: a placeholder
            assert not t.data.flags.writeable and not any(t.data.strides)
        else:  # fixed init (BN gamma/beta, biases): a real array
            assert not t.data.flags.writeable and t.data.flags.owndata
    _, path, _ = _trained_checkpoint(tmp_path, model, use_decoder=decoder)
    loaded = load_trained(path)
    for t in loaded.model.params().values():
        assert not t.data.flags.writeable and t.data.flags.owndata
    for arr in loaded.model.state().values():
        assert not arr.flags.writeable
