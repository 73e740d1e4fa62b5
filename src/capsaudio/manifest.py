"""Dataset manifests: CSV listing of clips with one or more labels.

Format: one row per clip, `relative/path.wav,label1|label2`, UTF-8, `#`
comment lines ignored. A manifest file describes a single split; the split
name is supplied by the caller (conventionally train.csv / test.csv).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .atomic import write_text
from .audio import AudioClip, load_wav, write_wav
from .errors import ConfigError, InsufficientData, ParseError
from .features import FeatureConfig, mfcc, read_cache, write_cache


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    labels: frozenset[str]


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    split: str  # "train" or "test"

    @property
    def class_names(self) -> list[str]:
        """The sorted union of the entries' labels."""
        return sorted(set().union(*(e.labels for e in self.entries)))

    @property
    def is_single_label(self) -> bool:
        return all(len(e.labels) == 1 for e in self.entries)


def load_manifest(path, split: str) -> DatasetManifest:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'path,labels', got {line!r}")
            rel, label_field = parts[0].strip(), parts[1].strip()
            if not rel or not label_field:
                raise ParseError(f"{path}:{lineno}: empty path or label field")
            labels = frozenset(l.strip() for l in label_field.split("|"))
            if any(not l for l in labels):
                raise ParseError(f"{path}:{lineno}: empty label")
            entries.append(ManifestEntry(rel, labels))
    if not entries:
        raise ParseError(f"{path}: manifest has no entries")
    return DatasetManifest(entries, split)


def save_manifest(path, manifest: DatasetManifest) -> None:
    lines = [f"# split: {manifest.split}"]
    lines += [f"{e.path},{'|'.join(sorted(e.labels))}" for e in manifest.entries]
    write_text(path, "\n".join(lines) + "\n")


def _cache_path(cache_dir: str, rel: str) -> str:
    return os.path.join(cache_dir, rel + ".cafe")


def clip_features(clip: AudioClip, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """The clip's MFCC array rounded through f32, as the feature cache holds it."""
    return mfcc(clip, cfg).astype(np.float32).astype(np.float64)


def materialize(manifest: DatasetManifest, root: str,
                cfg: FeatureConfig = FeatureConfig(),
                cache_dir: str | None = None, jobs: int = 1) -> list[np.ndarray]:
    """Compute (or load cached) [frames, dims] feature arrays, by entry index.

    Each distinct path is computed once; entries that list the same path
    share one array. Arrays round-trip through the f32 cache representation
    regardless of whether a cache_dir is given, so cached and direct runs
    are bit-identical. Clips are loaded at audio.TARGET_RATE, which mfcc
    checks against cfg.sample_rate. jobs must be 1: perfbench passes it
    positionally, and the next benchmark change deletes it (ROADMAP item 1).
    """
    if jobs != 1:
        raise ConfigError(f"materialize runs one path at a time; got jobs={jobs}")

    def one(rel: str) -> np.ndarray:
        if cache_dir is not None:
            cpath = _cache_path(cache_dir, rel)
            if os.path.exists(cpath):
                return read_cache(cpath)
        m = clip_features(load_wav(os.path.join(root, rel)), cfg)
        if cache_dir is not None:
            cpath = _cache_path(cache_dir, rel)
            os.makedirs(os.path.dirname(cpath) or ".", exist_ok=True)
            write_cache(cpath, m)  # m is already f32-rounded: what a read would return
        return m

    by_path = {rel: one(rel) for rel in dict.fromkeys(e.path for e in manifest.entries)}
    return [by_path[e.path] for e in manifest.entries]


def targets_for(manifest: DatasetManifest, class_names: list[str]) -> np.ndarray:
    """Multi-hot [n_entries x n_classes] matrix in class_names order."""
    index = {c: i for i, c in enumerate(class_names)}
    y = np.zeros((len(manifest.entries), len(class_names)))
    for row, e in enumerate(manifest.entries):
        for label in e.labels:
            y[row, index[label]] = 1.0
    return y


def synth_multilabel(src: DatasetManifest, root: str, out_dir: str,
                     seed: int, n_pairs: int | None = None) -> DatasetManifest:
    """Concatenate random pairs of single-label clips into a multi-label set.

    Each new clip is the concatenation of two source clips from the same
    split; its label set is the union of the two source labels. Deterministic
    under seed. New WAVs are written below out_dir.
    """
    if not src.is_single_label:
        raise ParseError("synth_multilabel expects a single-label source manifest")
    if len(src.entries) < 2:
        raise InsufficientData("need at least 2 source entries to form pairs")
    rng = np.random.default_rng(seed)
    if n_pairs is None:
        n_pairs = len(src.entries)

    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for k in range(n_pairs):
        i = int(rng.integers(len(src.entries)))
        j = int(rng.integers(len(src.entries) - 1))
        if j >= i:
            j += 1
        a = load_wav(os.path.join(root, src.entries[i].path))
        b = load_wav(os.path.join(root, src.entries[j].path))
        clip = AudioClip(np.concatenate([a.samples, b.samples]), a.sample_rate)
        rel = f"{src.split}_pair_{k:04d}.wav"
        write_wav(os.path.join(out_dir, rel), clip)
        entries.append(ManifestEntry(rel, src.entries[i].labels | src.entries[j].labels))
    return DatasetManifest(entries, src.split)
