"""MFCC feature extraction, min-max scaling and the binary feature cache.

Per frame: pre-emphasis, Hamming window, magnitude spectrum (rfft), triangular
mel filterbank, log, orthonormal DCT-II. The static vector is 19 cepstral
coefficients (DCT rows 1..19, row 0 dropped since log frame energy is carried
separately) plus the log energy of the pre-emphasized, windowed frame. First
and second regression derivatives over the 20 static dims give 60 dims total.
A feature matrix is a plain [frames, dims] float64 array.

The Hamming window, the transposed mel filterbank and the DCT rows that mfcc
multiplies by are built once per FeatureConfig and cached read-only
(_mfcc_tables); mel_filterbank and dct_matrix return fresh arrays.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .audio import TARGET_RATE, AudioClip
from .errors import FormatError, InputTooShort, ShapeError

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = TARGET_RATE
    frame_ms: float = 40.0
    hop_ms: float = 10.0
    n_coeffs: int = 19       # cepstral coefficients per frame (DCT rows 1..n)
    n_mels: int = 26
    preemphasis: float = 0.97
    delta_window: int = 2    # regression half-width, in frames

    @property
    def frame_len(self) -> int:
        return int(round(self.frame_ms * self.sample_rate / 1000.0))

    @property
    def hop_len(self) -> int:
        return int(round(self.hop_ms * self.sample_rate / 1000.0))

    @property
    def fft_size(self) -> int:
        n = 1
        while n < self.frame_len:
            n *= 2
        return n


def n_frames_for(n_samples: int, cfg: FeatureConfig) -> int:
    """Closed-form frame count; requires n_samples >= frame_len."""
    return 1 + (n_samples - cfg.frame_len) // cfg.hop_len


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Triangular filters [n_mels x (fft_size/2 + 1)] from 0 Hz to Nyquist."""
    n_bins = cfg.fft_size // 2 + 1
    f_max = cfg.sample_rate / 2.0
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(f_max), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_bins) * (cfg.sample_rate / cfg.fft_size)

    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix rows 0..n_out-1."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2.0 * n_in)) * np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    return mat


def _deltas(x: np.ndarray, half: int) -> np.ndarray:
    """Regression deltas with edge replication; exact zero on constant input."""
    denom = 2.0 * sum(n * n for n in range(1, half + 1))
    pad = np.concatenate([np.repeat(x[:1], half, axis=0), x,
                          np.repeat(x[-1:], half, axis=0)], axis=0)
    out = np.zeros_like(x)
    for n in range(1, half + 1):
        out += n * (pad[half + n : half + n + x.shape[0]]
                    - pad[half - n : half - n + x.shape[0]])
    return out / denom


@functools.cache
def _mfcc_tables(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window, filterbank^T and DCT rows 1..n_coeffs (transposed) that
    mfcc multiplies by, read-only. The two matrices stay transposed views,
    not contiguous copies: the layout decides the BLAS call, and so the bits."""
    tables = (np.hamming(cfg.frame_len), mel_filterbank(cfg).T,
              dct_matrix(cfg.n_coeffs + 1, cfg.n_mels).T[:, 1:])
    for t in tables:
        t.flags.writeable = False
    return tables


def _frames(x: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """The [frames, frame_len] read-only strided view of x, one row per hop."""
    rows = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)
    return rows[::cfg.hop_len][:n_frames_for(x.size, cfg)]


def mfcc(clip: AudioClip, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """The [frames, 60] float64 array of MFCC(+energy) + delta + delta-delta."""
    x = clip.samples
    if clip.sample_rate != cfg.sample_rate:
        raise ShapeError(
            f"clip rate {clip.sample_rate} != feature config rate {cfg.sample_rate}")
    if x.size < cfg.frame_len:
        raise InputTooShort(
            f"clip has {x.size} samples, need at least {cfg.frame_len}")

    window, mel_fb, dct = _mfcc_tables(cfg)

    # Pre-emphasis over the whole signal, then strided framing.
    emph = np.empty_like(x)
    emph[0] = x[0]
    emph[1:] = x[1:] - cfg.preemphasis * x[:-1]
    frames = _frames(emph, cfg) * window

    log_energy = np.log(np.maximum(np.sum(frames * frames, axis=1), LOG_FLOOR))

    spectrum = np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1))
    mel = spectrum @ mel_fb
    log_mel = np.log(np.maximum(mel, LOG_FLOOR))
    ceps = log_mel @ dct  # rows 1..n

    static = np.concatenate([ceps, log_energy[:, None]], axis=1)
    d1 = _deltas(static, cfg.delta_window)
    d2 = _deltas(d1, cfg.delta_window)
    return np.concatenate([static, d1, d2], axis=1)


@dataclass
class ScalerParams:
    """Per-dimension min/max, fitted on the training split only."""

    minimum: np.ndarray
    maximum: np.ndarray


def fit_scaler(train: list[np.ndarray]) -> ScalerParams:
    if not train:
        raise ShapeError("cannot fit a scaler on an empty training set")
    stacked = np.concatenate(train, axis=0)
    return ScalerParams(stacked.min(axis=0), stacked.max(axis=0))


def apply_scaler(m: np.ndarray, s: ScalerParams) -> np.ndarray:
    """x' = (x - min) / (max - min); a constant dim maps to 0; no clipping."""
    if m.shape[1] != s.minimum.shape[0]:
        raise ShapeError(f"matrix has {m.shape[1]} dims, scaler has {s.minimum.shape[0]}")
    span = s.maximum - s.minimum
    safe = np.where(span > 0, span, 1.0)
    scaled = (m - s.minimum) / safe
    scaled[:, span == 0] = 0.0
    return scaled


CACHE_MAGIC = b"CAFE"


def write_cache(path, m: np.ndarray) -> None:
    """Binary cache: magic CAFE, u32 n_frames, u32 n_dims, row-major f32.

    The write is atomic (atomic.atomic_write), so a concurrent reader that
    finds path sees a whole file. path's directory is made if missing.
    """
    payload = np.ascontiguousarray(m, dtype="<f4").tobytes()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(CACHE_MAGIC + struct.pack("<II", *m.shape) + payload)


def read_cache(path) -> np.ndarray:
    """The write_cache array at path, as float64; an empty one is a FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != CACHE_MAGIC:
        raise FormatError(f"{path}: not a feature cache (bad magic)")
    n_frames, n_dims = struct.unpack_from("<II", raw, 4)
    if n_frames == 0 or n_dims == 0:
        raise FormatError(f"{path}: holds {n_frames} frames of {n_dims} dims")
    expected = 12 + 4 * n_frames * n_dims
    if len(raw) != expected:
        raise FormatError(f"{path}: payload is {len(raw) - 12} bytes, "
                          f"header implies {expected - 12}")
    data = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64)
    return data.reshape(n_frames, n_dims)
