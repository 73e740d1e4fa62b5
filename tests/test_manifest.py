import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from capsaudio import manifest
from capsaudio.audio import AudioClip, load_wav, write_wav
from capsaudio.errors import ConfigError, InsufficientData, ParseError
from capsaudio.features import FeatureConfig
from capsaudio.manifest import (DatasetManifest, load_manifest, materialize,
                                save_manifest, synth_multilabel, targets_for)


def write_manifest(tmp_path, text, name="train.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_single_label_row(tmp_path):
    man = load_manifest(write_manifest(tmp_path, "a.wav,digit_3\n"), "train")
    assert man.entries[0].path == "a.wav"
    assert man.entries[0].labels == {"digit_3"}
    assert man.class_names == ["digit_3"]
    assert man.is_single_label


def test_multi_label_row(tmp_path):
    man = load_manifest(write_manifest(tmp_path, "b.wav,speech|noise\n"), "train")
    assert man.entries[0].labels == {"speech", "noise"}
    assert man.class_names == ["noise", "speech"]
    assert not man.is_single_label


def test_comments_and_blanks_skipped(tmp_path):
    man = load_manifest(
        write_manifest(tmp_path, "# header\n\na.wav,x\n# more\nb.wav,y\n"), "test")
    assert len(man.entries) == 2


def test_single_field_row_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_manifest(write_manifest(tmp_path, "only_a_path.wav\n"), "train")


def test_empty_label_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_manifest(write_manifest(tmp_path, "a.wav,\n"), "train")
    with pytest.raises(ParseError):
        load_manifest(write_manifest(tmp_path, "a.wav,x||y\n"), "train")


def test_empty_manifest_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_manifest(write_manifest(tmp_path, "# nothing\n"), "train")


def test_save_round_trip(tmp_path):
    man = load_manifest(write_manifest(tmp_path, "a.wav,x|y\nb.wav,z\n"), "test")
    save_manifest(tmp_path / "out.csv", man)
    back = load_manifest(tmp_path / "out.csv", "test")
    assert back.entries == man.entries
    assert back.class_names == man.class_names


def test_targets_for(tmp_path):
    man = load_manifest(write_manifest(tmp_path, "a.wav,x|z\nb.wav,y\n"), "train")
    y = targets_for(man, ["x", "y", "z"])
    np.testing.assert_array_equal(y, [[1, 0, 1], [0, 1, 0]])


def test_materialize_missing_file(tmp_path):
    man = load_manifest(write_manifest(tmp_path, "ghost.wav,x\n"), "train")
    with pytest.raises(FileNotFoundError):
        materialize(man, str(tmp_path))


def tone(freq, seconds=0.2, rate=8000):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(0.4 * np.sin(2 * np.pi * freq * t), rate)


def make_wav_dataset(tmp_path, n=4):
    rows = []
    for k in range(n):
        name = f"c{k}.wav"
        write_wav(tmp_path / name, tone(300 + 100 * k))
        rows.append(f"{name},class_{k % 2}")
    return load_manifest(write_manifest(tmp_path, "\n".join(rows) + "\n"), "train")


def test_materialize_rejects_jobs_other_than_one(tmp_path):
    man = make_wav_dataset(tmp_path)
    with pytest.raises(ConfigError, match="jobs=2"):
        materialize(man, str(tmp_path), FeatureConfig(), jobs=2)


def test_materialize_cache_bit_identical(tmp_path):
    man = make_wav_dataset(tmp_path)
    direct = materialize(man, str(tmp_path), FeatureConfig())
    cached = materialize(man, str(tmp_path), FeatureConfig(),
                         cache_dir=str(tmp_path / "cache"))
    again = materialize(man, str(tmp_path), FeatureConfig(),
                        cache_dir=str(tmp_path / "cache"))
    for a, b, c in zip(direct, cached, again):
        assert np.array_equal(a, b)
        assert np.array_equal(b, c)


def test_materialize_cold_pass_reads_no_cache(tmp_path, monkeypatch):
    man = make_wav_dataset(tmp_path)
    reads = []
    real_read = manifest.read_cache
    monkeypatch.setattr(manifest, "read_cache", lambda p: reads.append(p) or real_read(p))
    cache = str(tmp_path / "cache")
    cold = materialize(man, str(tmp_path), FeatureConfig(), cache_dir=cache)
    assert reads == []
    warm = materialize(man, str(tmp_path), FeatureConfig(), cache_dir=cache)
    assert len(reads) == len(man.entries)
    for a, b in zip(cold, warm):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_materialize_shared_cache_never_torn(tmp_path):
    # Eight materialize calls on one empty cache at once: calls that find the
    # cache file read it while others are still writing it.
    write_wav(tmp_path / "a.wav", tone(440))
    man = load_manifest(write_manifest(tmp_path, "a.wav,x\n"), "train")
    expected = materialize(man, str(tmp_path), FeatureConfig())[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for k in range(10):
            cache = tmp_path / f"cache{k}"
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = list(pool.map(
                    lambda _: materialize(man, str(tmp_path), FeatureConfig(),
                                          cache_dir=str(cache)), range(8)))
            assert all(np.array_equal(m, expected) for ms in runs for m in ms)
            assert os.listdir(cache) == ["a.wav.cafe"]  # no temp file left
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cached", [False, True])
def test_materialize_computes_each_path_once(tmp_path, monkeypatch, cached):
    man0 = make_wav_dataset(tmp_path, n=3)
    rows = [f"{e.path},x" for e in man0.entries] * 20
    man = load_manifest(write_manifest(tmp_path, "\n".join(rows) + "\n"), "train")
    expected = materialize(man0, str(tmp_path), FeatureConfig())
    calls = []
    real_mfcc = manifest.mfcc
    monkeypatch.setattr(manifest, "mfcc",
                        lambda clip, cfg: calls.append(1) or real_mfcc(clip, cfg))
    cache = str(tmp_path / "cache") if cached else None
    mats = materialize(man, str(tmp_path), FeatureConfig(), cache_dir=cache)
    assert len(calls) == 3
    assert len(mats) == 60
    for k, m in enumerate(mats):
        assert np.array_equal(m, expected[k % 3])


def test_synth_multilabel_deterministic(tmp_path):
    man = make_wav_dataset(tmp_path)
    out1 = synth_multilabel(man, str(tmp_path), str(tmp_path / "m1"), seed=5)
    out2 = synth_multilabel(man, str(tmp_path), str(tmp_path / "m2"), seed=5)
    assert [e.labels for e in out1.entries] == [e.labels for e in out2.entries]
    a = load_wav(tmp_path / "m1" / out1.entries[0].path)
    b = load_wav(tmp_path / "m2" / out2.entries[0].path)
    assert np.array_equal(a.samples, b.samples)


def test_synth_multilabel_label_union(tmp_path):
    man = make_wav_dataset(tmp_path, n=6)
    out = synth_multilabel(man, str(tmp_path), str(tmp_path / "m"), seed=1,
                           n_pairs=20)
    label_map = {e.path: e.labels for e in man.entries}
    assert all(1 <= len(e.labels) <= 2 for e in out.entries)
    assert set(out.class_names) <= {"class_0", "class_1"}
    # concatenated lengths: pair wavs are longer than any single source
    src_len = max(load_wav(tmp_path / e.path).samples.size for e in man.entries)
    pair_len = load_wav(tmp_path / "m" / out.entries[0].path).samples.size
    assert pair_len > src_len
    assert label_map  # silences linters; source labels all binary classes


def test_synth_multilabel_same_class_pair_allowed(tmp_path):
    rows = []
    for k in range(2):
        name = f"s{k}.wav"
        write_wav(tmp_path / name, tone(400))
        rows.append(f"{name},only")
    man = load_manifest(write_manifest(tmp_path, "\n".join(rows) + "\n"), "train")
    out = synth_multilabel(man, str(tmp_path), str(tmp_path / "m"), seed=0)
    assert all(e.labels == {"only"} for e in out.entries)


def test_synth_multilabel_insufficient(tmp_path):
    write_wav(tmp_path / "a.wav", tone(400))
    man = load_manifest(write_manifest(tmp_path, "a.wav,x\n"), "train")
    with pytest.raises(InsufficientData):
        synth_multilabel(man, str(tmp_path), str(tmp_path / "m"), seed=0)


def test_synth_multilabel_requires_single_label(tmp_path):
    man = DatasetManifest(
        entries=[e for e in make_wav_dataset(tmp_path).entries], split="train")
    man.entries[0] = type(man.entries[0])(man.entries[0].path,
                                          frozenset({"a", "b"}))
    with pytest.raises(ParseError):
        synth_multilabel(man, str(tmp_path), str(tmp_path / "m"), seed=0)
