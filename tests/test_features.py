import numpy as np
import pytest

from capsaudio import features
from capsaudio.audio import AudioClip
from capsaudio.errors import FormatError, InputTooShort, ShapeError
from capsaudio.features import (FeatureConfig, apply_scaler, fit_scaler, mfcc, n_frames_for,
                                read_cache, write_cache)
from capsaudio.manifest import load_manifest, materialize
from capsaudio.synthdata import make_digit_dataset
from reference_mfcc import direct_dft_magnitude, naive_mfcc

CFG = FeatureConfig()


def sine_clip(freq=440.0, seconds=0.5, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_frame_count_one_second():
    m = mfcc(sine_clip(seconds=1.0))
    assert m.shape == (97, 60)


def test_frame_count_formula_random_lengths(rng):
    for _ in range(50):
        n = int(rng.integers(CFG.frame_len, 4 * CFG.frame_len))
        clip = AudioClip(rng.normal(size=n) * 0.1, 16000)
        assert mfcc(clip).shape[0] == 1 + (n - CFG.frame_len) // CFG.hop_len
        assert mfcc(clip).shape[0] == n_frames_for(n, CFG)


def test_too_short_clip():
    with pytest.raises(InputTooShort):
        mfcc(AudioClip(np.zeros(CFG.frame_len - 1), 16000))


def test_rate_mismatch():
    with pytest.raises(ShapeError):
        mfcc(AudioClip(np.zeros(8000), 8000))


def test_silence_constant_statics_zero_deltas():
    m = mfcc(AudioClip(np.zeros(8000), 16000))
    static = m[:, :20]
    assert np.all(static == static[0])          # constant across frames
    assert np.all(m[:, 20:] == 0.0)        # deltas exactly zero


def test_determinism_bit_identical():
    clip = sine_clip()
    a, b = mfcc(clip), mfcc(clip)
    assert np.array_equal(a, b)


def test_sine_against_naive_reference():
    clip = sine_clip()
    prod = mfcc(clip)
    ref = naive_mfcc(clip.samples)
    assert prod.shape == ref.shape
    assert rel_err(prod, ref) <= 1e-6


def test_spectrum_fft_vs_direct_dft(rng):
    for _ in range(10):
        frame = rng.normal(size=640)
        fft_mag = np.abs(np.fft.rfft(frame, n=1024))
        dft_mag = direct_dft_magnitude(frame, 1024)
        assert rel_err(fft_mag, dft_mag) <= 1e-6


# --- cached tables and framing ---------------------------------------------

@pytest.fixture()
def fresh_tables():
    features._mfcc_tables.cache_clear()
    yield
    features._mfcc_tables.cache_clear()


def test_cached_tables_are_read_only(fresh_tables):
    tables = features._mfcc_tables(CFG)
    assert features._mfcc_tables(CFG) is tables
    for t in tables:
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 1.0


def test_cached_tables_are_the_builders_arrays(fresh_tables):
    window, mel_fb, dct = features._mfcc_tables(CFG)
    assert window.tobytes() == np.hamming(CFG.frame_len).tobytes()
    assert np.array_equal(mel_fb, features.mel_filterbank(CFG).T)
    assert np.array_equal(dct, features.dct_matrix(CFG.n_coeffs + 1, CFG.n_mels).T[:, 1:])
    assert features.mel_filterbank(CFG).flags.writeable  # builders stay fresh


def test_materialize_builds_each_table_once(tmp_path, monkeypatch, fresh_tables):
    calls = {"hamming": 0, "mel_filterbank": 0, "dct_matrix": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapped)

    counting(np, "hamming")
    counting(features, "mel_filterbank")
    counting(features, "dct_matrix")
    train_csv, _ = make_digit_dataset(str(tmp_path), digits=range(4), clips_per=3, seed=1)
    man = load_manifest(train_csv, "train")
    assert len(man.entries) >= 20
    assert len(materialize(man, str(tmp_path))) == len(man.entries)
    assert calls == {"hamming": 1, "mel_filterbank": 1, "dct_matrix": 1}


def test_strided_framing_matches_index_framing(rng):
    for _ in range(50):
        n = int(rng.integers(CFG.frame_len, 6 * CFG.frame_len))
        emph = rng.normal(size=n)
        n_frames = n_frames_for(n, CFG)
        idx = np.arange(CFG.frame_len)[None, :] + CFG.hop_len * np.arange(n_frames)[:, None]
        framed = features._frames(emph, CFG)
        assert framed.shape == (n_frames, CFG.frame_len)
        assert framed.tobytes() == emph[idx].tobytes()
        window = np.hamming(CFG.frame_len)
        assert (framed * window).tobytes() == (emph[idx] * window[None, :]).tobytes()


def test_mfcc_same_bits_after_cache_clear(rng, fresh_tables):
    clip = AudioClip(rng.normal(size=9000) * 0.1, 16000)
    before = mfcc(clip)
    features._mfcc_tables.cache_clear()
    assert mfcc(clip).tobytes() == before.tobytes()


# --- scaler ---------------------------------------------------------------

def fm(arr):
    return np.asarray(arr, dtype=np.float64)


def test_scaler_single_matrix():
    s = fit_scaler([fm([[1.0], [3.0], [5.0]])])
    assert s.minimum[0] == 1.0 and s.maximum[0] == 5.0


def test_scaler_pools_matrices():
    s = fit_scaler([fm([[1.0], [2.0]]), fm([[7.0], [0.0]])])
    assert s.minimum[0] == 0.0 and s.maximum[0] == 7.0


def test_scaler_examples():
    s = fit_scaler([fm([[1.0], [5.0]])])
    out = apply_scaler(fm([[3.0], [7.0]]), s)
    np.testing.assert_allclose(out[:, 0], [0.5, 1.5])  # no clipping


def test_scaler_degenerate_dim():
    s = fit_scaler([fm([[2.0], [2.0]])])
    assert s.minimum[0] == s.maximum[0] == 2.0
    out = apply_scaler(fm([[2.0], [9.0]]), s)
    assert np.all(out == 0.0)


def test_scaler_dim_mismatch():
    s = fit_scaler([fm([[1.0], [2.0]])])
    with pytest.raises(ShapeError):
        apply_scaler(np.zeros((2, 3)), s)


def test_scaler_unit_range_on_fitted_set(rng):
    mats = [fm(rng.normal(size=(10, 6)) * 5) for _ in range(4)]
    s = fit_scaler(mats)
    for m in mats:
        out = apply_scaler(m, s)
        assert out.min() >= 0.0 and out.max() <= 1.0


# --- cache ----------------------------------------------------------------

def test_cache_round_trip(tmp_path, rng):
    m = fm(rng.normal(size=(7, 5)).astype(np.float32))
    path = tmp_path / "m.cafe"
    write_cache(path, m)
    back = read_cache(path)
    assert back.shape == (7, 5)
    assert np.array_equal(back, m)  # f32 values survive bit-exactly


def test_cache_layout(tmp_path):
    path = tmp_path / "m.cafe"
    write_cache(path, fm([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"CAFE"
    assert raw[4:12] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert len(raw) == 12 + 2 * 4


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.cafe"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_cache(path)


def test_cache_truncated(tmp_path):
    path = tmp_path / "m.cafe"
    write_cache(path, fm([[1.0, 2.0], [3.0, 4.0]]))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        read_cache(path)
