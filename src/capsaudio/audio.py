"""WAV loading, writing and linear resampling.

Only RIFF/WAVE containers with uncompressed payloads are handled: 8/16/24-bit
integer PCM and 32-bit IEEE float, under their own format tag or under
WAVE_FORMAT_EXTENSIBLE's. Everything is reduced to mono float64 in [-1, 1]
and resampled to a uniform 16 kHz so downstream frame geometry is identical
for every clip.
"""

from __future__ import annotations

import struct
import uuid
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ParseError, UnsupportedFormat

TARGET_RATE = 16000

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
_SUBFORMATS = {uuid.UUID(f"{tag:08x}-0000-0010-8000-00aa00389b71"): tag
               for tag in (_FMT_PCM, _FMT_FLOAT)}


@dataclass
class AudioClip:
    """Mono PCM samples plus their sample rate."""

    samples: np.ndarray  # float64, nominal range [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ParseError("audio clip has no samples")
        if self.sample_rate <= 0:
            raise ParseError(f"invalid sample rate {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ParseError("audio clip contains non-finite samples")


def resample_linear(samples: np.ndarray, n_out: int) -> np.ndarray:
    """Resample to exactly n_out samples by linear interpolation."""
    samples = np.asarray(samples, dtype=np.float64)
    n_in = samples.size
    if n_out == n_in:
        return samples.copy()
    # Map output index i to position i * (n_in - 1) / (n_out - 1) so the
    # first and last samples are preserved.
    if n_out == 1:
        return samples[:1].copy()
    pos = np.arange(n_out, dtype=np.float64) * ((n_in - 1) / (n_out - 1))
    return np.interp(pos, np.arange(n_in, dtype=np.float64), samples)


def _read_chunks(raw: bytes):
    """Yield (chunk id, payload) pairs from a RIFF body, validating sizes."""
    if len(raw) < 12:
        raise ParseError("file too short for a RIFF header")
    if raw[0:4] != b"RIFF":
        raise ParseError("missing RIFF magic")
    if raw[8:12] != b"WAVE":
        raise ParseError("RIFF file is not WAVE")
    pos = 12
    while pos < len(raw):
        if pos + 8 > len(raw):
            raise ParseError("truncated chunk header")
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ParseError(f"truncated {cid!r} chunk: {len(body)} of {size} bytes")
        yield cid, body
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def _decode_samples(data: bytes, fmt: int, bits: int, n_channels: int) -> np.ndarray:
    if fmt == _FMT_PCM and bits == 8:
        x = np.frombuffer(data, dtype=np.uint8).astype(np.float64)
        x = (x - 128.0) / 128.0
    elif fmt == _FMT_PCM and bits == 16:
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    elif fmt == _FMT_PCM and bits == 24:
        b = np.frombuffer(data, dtype=np.uint8)
        if b.size % 3:
            raise ParseError("24-bit data chunk is not a multiple of 3 bytes")
        b = b.reshape(-1, 3).astype(np.int64)
        x = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        x = np.where(x >= 1 << 23, x - (1 << 24), x).astype(np.float64) / float(1 << 23)
    elif fmt == _FMT_FLOAT and bits == 32:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise UnsupportedFormat(f"unsupported encoding: format tag {fmt}, {bits}-bit")
    if x.size % n_channels:
        raise ParseError("data chunk size inconsistent with channel count")
    return x.reshape(-1, n_channels)


def load_wav(path) -> AudioClip:
    """Read a PCM WAV file as a mono AudioClip at TARGET_RATE.

    Channels are averaged to mono and integer samples normalized to [-1, 1].
    A clip at another rate is resampled by linear interpolation, so every
    clip shares one frame geometry.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    fmt = None
    data = None
    for cid, body in _read_chunks(raw):
        if cid == b"fmt ":
            if len(body) < 16:
                raise ParseError("fmt chunk shorter than 16 bytes")
            tag, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if tag == _FMT_EXTENSIBLE:  # the sub-format GUID at offset 24 holds the tag
                if len(body) < 40:
                    raise ParseError(f"extensible fmt chunk has {len(body)} of 40 bytes")
                guid = uuid.UUID(bytes_le=body[24:40])
                if guid not in _SUBFORMATS:
                    raise UnsupportedFormat(f"unknown WAVE_FORMAT_EXTENSIBLE sub-format {guid}")
                tag = _SUBFORMATS[guid]
            fmt = (tag, n_channels, rate, bits)
        elif cid == b"data":
            data = body
    if fmt is None:
        raise ParseError("missing fmt chunk")
    if data is None:
        raise ParseError("missing data chunk")

    tag, n_channels, rate, bits = fmt
    if n_channels < 1:
        raise ParseError("fmt chunk declares zero channels")
    if rate == 0:
        raise ParseError("fmt chunk declares sample rate 0")
    frames = _decode_samples(data, tag, bits, n_channels)
    if frames.shape[0] == 0:
        raise ParseError("empty data chunk")
    mono = frames.mean(axis=1)

    if rate != TARGET_RATE:
        mono = resample_linear(mono, max(1, int(round(mono.size * TARGET_RATE / rate))))
    return AudioClip(mono, TARGET_RATE)


def write_wav(path, clip: AudioClip) -> None:
    """Write a mono 16-bit PCM WAV file."""
    x = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    body = b"WAVE"
    body += b"fmt " + struct.pack("<IHHIIHH", 16, _FMT_PCM, 1, clip.sample_rate,
                                  clip.sample_rate * 2, 2, 16)
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    with atomic_write(path) as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)
