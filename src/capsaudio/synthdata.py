"""Synthetic spoken-digit-style dataset for desk-scale experiments.

Real speech corpora are licensed or too large to ship, so tests and demos run
on generated clips that mimic the structure of a small spoken-digit set:
10 classes, a few speakers, one speaker held out for testing. Each digit is
a harmonic tone whose spectral envelope peaks at digit-specific formant
frequencies; speakers differ in pitch, formant scale and envelope, so class
identity must be read from the envelope, not from pitch.
"""

from __future__ import annotations

import os

import numpy as np

from .audio import AudioClip, write_wav
from .manifest import DatasetManifest, ManifestEntry, save_manifest

SOURCE_RATE = 8000

# Per-speaker voice: base pitch (Hz), formant scale, envelope sharpness.
# The last speaker (the conventional held-out one) sits furthest from the
# others so the test split carries a real generalization gap.
SPEAKERS = [
    (105.0, 0.96, 1.0),
    (132.0, 1.00, 1.4),
    (170.0, 1.06, 0.8),
]

NOISE_LEVEL = 0.3              # noise std, as a fraction of the clean clip's RMS
DURATION_RANGE = (0.30, 0.45)  # utterance length, seconds
TEST_SPEAKER = 2               # held out as the test split

# Second-formant order is permuted so (F1, F2) pairs decorrelate.
_F2_ORDER = [3, 7, 0, 5, 9, 1, 6, 2, 8, 4]


def digit_formants(digit: int) -> tuple[float, float]:
    f1 = 300.0 + 55.0 * digit
    f2 = 1150.0 + 235.0 * _F2_ORDER[digit % 10]
    return f1, f2


def synth_digit_clip(digit: int, speaker: int, rng: np.random.Generator) -> AudioClip:
    """One synthetic utterance of `digit` by `speaker`."""
    f0_base, formant_scale, sharp = SPEAKERS[speaker % len(SPEAKERS)]
    dur = rng.uniform(*DURATION_RANGE)
    n = int(dur * SOURCE_RATE)
    t = np.arange(n) / SOURCE_RATE

    f0 = f0_base * (1.0 + rng.uniform(-0.04, 0.04))
    f0_t = f0 * (1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(f0_t) / SOURCE_RATE

    f1, f2 = digit_formants(digit)
    scale = formant_scale * (1.0 + rng.uniform(-0.015, 0.015))
    f1, f2 = f1 * scale, f2 * scale
    glide = 1.0 if digit % 2 == 0 else -1.0
    f1_t = f1 * (1.0 + glide * 0.08 * (t / dur - 0.5))

    x = np.zeros(n)
    k = 1
    while k * f0 < 3600.0:
        freq = k * f0
        amp = (np.exp(-(((freq - f1_t) / 95.0) ** 2))
               + 0.7 * np.exp(-(((freq - f2) / 150.0) ** 2)))
        x += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
        k += 1

    # Attack/decay envelope; sharpness is a speaker trait.
    att = max(2, int(0.15 * n))
    dec = max(2, int(0.25 * n))
    env = np.ones(n)
    env[:att] = np.linspace(0, 1, att) ** sharp
    env[-dec:] = np.linspace(1, 0, dec) ** sharp
    x *= env

    rms = np.sqrt(np.mean(x * x)) + 1e-12
    x += rng.normal(0.0, NOISE_LEVEL * rms, size=n)
    peak = np.max(np.abs(x)) + 1e-12
    x *= rng.uniform(0.35, 0.45) / peak
    # Envelope-shaped positive pressure bias, like the asymmetry of real
    # speech waveforms; gives clips consistent near-DC content.
    x += 0.13 * np.max(np.abs(x)) * env
    return AudioClip(x, SOURCE_RATE)


def make_digit_dataset(out_dir: str, digits=range(10), clips_per: int = 4,
                       seed: int = 0) -> tuple[str, str]:
    """Write WAVs plus train.csv / test.csv under out_dir.

    Every speaker except TEST_SPEAKER contributes to the train split; the
    held-out speaker forms the test split. Returns the two manifest paths.
    """
    rng = np.random.default_rng(seed)
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)

    splits: dict[str, list[ManifestEntry]] = {"train": [], "test": []}
    for digit in digits:
        for speaker in range(len(SPEAKERS)):
            for k in range(clips_per):
                clip = synth_digit_clip(digit, speaker, rng)
                rel = f"wav/spk{speaker}_dig{digit}_{k}.wav"
                write_wav(os.path.join(out_dir, rel), clip)
                split = "test" if speaker == TEST_SPEAKER else "train"
                splits[split].append(ManifestEntry(rel, frozenset({f"digit_{digit}"})))

    paths = []
    for split in ("train", "test"):
        path = os.path.join(out_dir, f"{split}.csv")
        save_manifest(path, DatasetManifest(splits[split], split))
        paths.append(path)
    return paths[0], paths[1]


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "digits_data"
    train_csv, test_csv = make_digit_dataset(target)
    print(f"wrote {train_csv} and {test_csv}")
