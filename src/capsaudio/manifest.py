"""Dataset manifests: CSV listing of clips with one or more labels.

Format: one row per clip, `relative/path.wav,label1|label2`, UTF-8, `#`
comment lines ignored. A manifest file describes a single split; the split
name is supplied by the caller (conventionally train.csv / test.csv).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, load_wav, write_wav
from .errors import InsufficientData, MissingFile, ParseError
from .features import FeatureConfig, FeatureMatrix, mfcc, read_cache, write_cache


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    labels: frozenset[str]


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    class_names: list[str]
    split: str  # "train" or "test"

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
    class_names = sorted(set().union(*(e.labels for e in entries)))
    return DatasetManifest(entries, class_names, split)


def save_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# split: {manifest.split}\n")
        for e in manifest.entries:
            fh.write(f"{e.path},{'|'.join(sorted(e.labels))}\n")


def _cache_path(cache_dir: str, rel: str) -> str:
    return os.path.join(cache_dir, rel + ".cafe")


def materialize(manifest: DatasetManifest, root: str,
                cfg: FeatureConfig = FeatureConfig(),
                cache_dir: str | None = None, jobs: int = 1) -> list[FeatureMatrix]:
    """Compute (or load cached) feature matrices, keyed by entry index.

    Each distinct path is computed once; entries that list the same path
    share one FeatureMatrix. Matrices round-trip through the f32 cache
    representation regardless of whether a cache_dir is given, so cached
    and direct runs are bit-identical.
    """

    def one(rel: str) -> FeatureMatrix:
        if cache_dir is not None:
            cpath = _cache_path(cache_dir, rel)
            if os.path.exists(cpath):
                return read_cache(cpath)
        wav = os.path.join(root, rel)
        if not os.path.exists(wav):
            raise MissingFile(f"manifest references missing file {wav}")
        m = mfcc(load_wav(wav, target_rate=cfg.sample_rate), cfg)
        if cache_dir is not None:
            cpath = _cache_path(cache_dir, rel)
            os.makedirs(os.path.dirname(cpath) or ".", exist_ok=True)
            write_cache(cpath, m)
            return read_cache(cpath)
        m.data = m.data.astype(np.float32).astype(np.float64)
        return m

    paths = list(dict.fromkeys(e.path for e in manifest.entries))
    if jobs <= 1:
        mats = [one(rel) for rel in paths]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            mats = list(pool.map(one, paths))
    by_path = dict(zip(paths, mats))
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

    class_names = sorted(set().union(*(e.labels for e in entries)))
    return DatasetManifest(entries, class_names, src.split)
