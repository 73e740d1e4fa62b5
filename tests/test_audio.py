import struct

import numpy as np
import pytest

from capsaudio.audio import AudioClip, load_wav, resample_linear, write_wav
from capsaudio.errors import ParseError, UnsupportedFormat


def wav_bytes(data, fmt=1, channels=1, rate=16000, bits=16):
    body = b"WAVE"
    body += b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, rate,
                                  rate * channels * bits // 8,
                                  channels * bits // 8, bits)
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def extensible_wav_bytes(data, subformat=1, bits=16, ext_len=22):
    """Mono 16 kHz WAVE_FORMAT_EXTENSIBLE (tag 0xFFFE): the plain fmt fields,
    then cbSize 22, valid bits, channel mask and the sub-format GUID, cut to
    16 + 2 + ext_len bytes."""
    guid = struct.pack("<I", subformat) + bytes.fromhex("000010008000" "00aa00389b71")
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 16000 * bits // 8, bits // 8, bits,
                      22, bits, 0x4) + guid
    fmt = fmt[:18 + ext_len]
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write(tmp_path, raw, name="x.wav"):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


def test_16bit_normalization(tmp_path):
    data = struct.pack("<3h", 0, 16384, -16384)
    clip = load_wav(write(tmp_path, wav_bytes(data)))
    assert clip.sample_rate == 16000
    np.testing.assert_allclose(clip.samples, [0.0, 0.5, -0.5])


def test_stereo_channel_mean(tmp_path):
    # one frame, channels 1.0 and 0.0
    data = struct.pack("<2h", 32767, 0)
    clip = load_wav(write(tmp_path, wav_bytes(data, channels=2)))
    assert clip.samples.shape == (1,)
    assert clip.samples[0] == pytest.approx(0.5, abs=1e-4)


def test_truncated_data_chunk(tmp_path):
    raw = wav_bytes(struct.pack("<4h", 1, 2, 3, 4))
    with pytest.raises(ParseError):
        load_wav(write(tmp_path, raw[:-3]))


def test_truncated_header(tmp_path):
    with pytest.raises(ParseError):
        load_wav(write(tmp_path, b"RIFF\x00\x00"))


def test_not_riff(tmp_path):
    with pytest.raises(ParseError):
        load_wav(write(tmp_path, b"OggS" + b"\x00" * 64))


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "nope.wav")


def test_zero_sample_rate(tmp_path):
    raw = wav_bytes(struct.pack("<4h", 1, 2, 3, 4), rate=0)
    with pytest.raises(ParseError, match="sample rate 0"):
        load_wav(write(tmp_path, raw))


def test_compressed_codec_rejected(tmp_path):
    # format tag 85 = MP3 inside RIFF
    raw = wav_bytes(b"\x00\x00", fmt=85)
    with pytest.raises(UnsupportedFormat):
        load_wav(write(tmp_path, raw))


def test_unsupported_bit_depth(tmp_path):
    raw = wav_bytes(b"\x00" * 8, fmt=1, bits=64)
    with pytest.raises(UnsupportedFormat):
        load_wav(write(tmp_path, raw))


def test_extensible_pcm_and_float_match_their_plain_twins(tmp_path):
    pcm = struct.pack("<4h", 0, 16384, -16384, 32767)
    f32 = struct.pack("<3f", 0.25, -0.5, 1.0)
    for data, tag, bits in ((pcm, 1, 16), (f32, 3, 32)):
        plain = load_wav(write(tmp_path, wav_bytes(data, fmt=tag, bits=bits), "plain.wav"))
        ext = load_wav(write(tmp_path, extensible_wav_bytes(data, tag, bits=bits), "ext.wav"))
        np.testing.assert_array_equal(ext.samples, plain.samples)
        assert ext.sample_rate == plain.sample_rate


def test_extensible_unknown_subformat_is_named(tmp_path):
    raw = extensible_wav_bytes(b"\x00\x00", subformat=2)  # ADPCM
    with pytest.raises(UnsupportedFormat, match="00000002-0000-0010-8000-00aa00389b71"):
        load_wav(write(tmp_path, raw))


def test_extensible_short_extension(tmp_path):
    raw = extensible_wav_bytes(b"\x00\x00", ext_len=8)  # no sub-format GUID
    with pytest.raises(ParseError, match="26 of 40 bytes"):
        load_wav(write(tmp_path, raw))


def test_float32_payload(tmp_path):
    data = struct.pack("<3f", 0.25, -0.5, 1.0)
    clip = load_wav(write(tmp_path, wav_bytes(data, fmt=3, bits=32)))
    np.testing.assert_allclose(clip.samples, [0.25, -0.5, 1.0])


def test_8bit_and_24bit(tmp_path):
    clip8 = load_wav(write(tmp_path, wav_bytes(bytes([128, 255, 0]), bits=8)))
    np.testing.assert_allclose(clip8.samples, [0.0, 127 / 128, -1.0])
    pos, neg = 1 << 22, (1 << 24) - (1 << 22)  # +2^22 and -2^22 two's complement
    data24 = pos.to_bytes(3, "little") + neg.to_bytes(3, "little")
    clip24 = load_wav(write(tmp_path, wav_bytes(data24, bits=24)))
    np.testing.assert_allclose(clip24.samples, [0.5, -0.5])


def test_resample_at_load(tmp_path):
    data = struct.pack("<8000h", *([1000] * 8000))
    clip = load_wav(write(tmp_path, wav_bytes(data, rate=8000)))
    assert clip.sample_rate == 16000
    assert clip.samples.size == 16000


def test_write_read_round_trip(tmp_path):
    x = np.linspace(-0.9, 0.9, 1000)
    write_wav(tmp_path / "rt.wav", AudioClip(x, 16000))
    back = load_wav(tmp_path / "rt.wav")
    # quantization plus the 32767-write / 32768-read scale difference
    np.testing.assert_allclose(back.samples, x, atol=1e-4)


def test_resample_linear_endpoints():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = resample_linear(x, 7)
    assert y[0] == 0.0 and y[-1] == 3.0
    np.testing.assert_allclose(y, np.linspace(0, 3, 7))


def test_clip_invariants():
    with pytest.raises(ParseError):
        AudioClip(np.array([]), 16000)
    with pytest.raises(ParseError):
        AudioClip(np.array([np.nan]), 16000)
    with pytest.raises(ParseError):
        AudioClip(np.array([0.0]), 0)
