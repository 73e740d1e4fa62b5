"""Inference tooling: amplitude/speed augmentation, PCA over capsule
activity vectors, scatter-table emission and transfer-feature export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import write_text
from .audio import AudioClip, resample_linear
from .errors import ConfigError
from .features import write_cache
from .manifest import DatasetManifest, cache_path, clip_features, materialize
from .train import TrainedModel, check_widths

DEFAULT_AMPLITUDE_LEVELS = (-0.1, -0.05, 0.05, 0.1)
DEFAULT_SPEED_LEVELS = (0.8, 0.9, 1.1, 1.25)


@dataclass(frozen=True)
class AugmentSpec:
    kind: str            # "amplitude" (DC offset) or "speed" (rate factor)
    levels: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("amplitude", "speed"):
            raise ConfigError(f"unknown augmentation kind {self.kind!r}")
        if not self.levels or len(set(self.levels)) != len(self.levels):
            raise ConfigError("levels must be non-empty and distinct")
        if not np.all(np.isfinite(self.levels)):
            raise ConfigError(f"levels must be finite, got {self.levels}")
        if self.kind == "speed" and any(l <= 0 for l in self.levels):
            raise ConfigError("speed factors must be positive")


def augment(clip: AudioClip, spec: AugmentSpec, level: float) -> AudioClip:
    """Apply one augmentation level; pure and deterministic."""
    if spec.kind == "amplitude":
        return AudioClip(np.clip(clip.samples + level, -1.0, 1.0), clip.sample_rate)
    if level <= 0:
        raise ConfigError(f"speed factor must be positive, got {level}")
    n_out = max(1, int(round(clip.samples.size / level)))
    return AudioClip(resample_linear(clip.samples, n_out), clip.sample_rate)


@dataclass
class PCAModel:
    mean: np.ndarray                      # [d]
    components: np.ndarray                # [k, d], row-orthonormal
    explained_variance_ratio: np.ndarray  # [k], non-increasing

    def project(self, vectors: np.ndarray) -> np.ndarray:
        return (vectors - self.mean) @ self.components.T


def fit_pca(vectors: np.ndarray, n_components: int) -> PCAModel:
    """Eigendecomposition of the mean-centered covariance.

    Sign convention: the largest-magnitude entry of each component is
    positive. Zero eigenvalues are allowed (rank-deficient data shows up in
    the ratios, not as an error).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n, d = vectors.shape
    if n_components < 1 or n_components > d:
        raise ConfigError(f"n_components must be in [1, {d}], got {n_components}")
    if n <= n_components:
        raise ConfigError(f"need more than {n_components} vectors, got {n}")

    mean = vectors.mean(axis=0)
    centered = vectors - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    eigvecs = eigvecs[:, ::-1]

    components = eigvecs[:, :n_components].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    total = eigvals.sum()
    ratios = eigvals[:n_components] / total if total > 0 else np.zeros(n_components)
    return PCAModel(mean, components, ratios)


def capsule_scatter(trained: TrainedModel,
                    clips_with_levels: list[tuple[AudioClip, float]],
                    class_index: int):
    """Project one class's activity vectors to 2-D, labeled by level.

    Returns (rows, pca) where rows are (level, pc1, pc2). With a single
    clip the centered projection is the origin and pca is None; with two,
    only the first component is fit and pc2 is 0. Inputs are built as for training.
    """
    X = trained.inputs([clip_features(clip) for clip, _ in clips_with_levels])
    caps = trained.caps_vectors(X)  # raises ConfigError unless a caps model
    n_classes = trained.model.n_classes
    if not 0 <= class_index < n_classes:
        raise ConfigError(f"class index {class_index} not in checkpoint "
                          f"(has {n_classes} classes)")
    vectors = caps[:, class_index, :]
    levels = [lvl for _, lvl in clips_with_levels]

    n = vectors.shape[0]
    if n == 1:
        return [(levels[0], 0.0, 0.0)], None
    k = min(2, n - 1, vectors.shape[1])
    pca = fit_pca(vectors, k)
    proj = pca.project(vectors)
    if k == 1:
        proj = np.concatenate([proj, np.zeros((n, 1))], axis=1)
    return [(lvl, float(p[0]), float(p[1])) for lvl, p in zip(levels, proj)], pca


def write_scatter(path, rows, checkpoint_hash: str, pca: PCAModel | None) -> None:
    ratios = ("" if pca is None
              else ",".join(f"{r:.6f}" for r in pca.explained_variance_ratio))
    lines = [f"# checkpoint: {checkpoint_hash}",
             f"# explained_variance_ratio: {ratios}",
             "level,pc1,pc2"]
    lines += [f"{level},{pc1!r},{pc2!r}" for level, pc1, pc2 in rows]
    write_text(path, "\n".join(lines) + "\n")


def export_transfer_features(trained: TrainedModel, manifest: DatasetManifest,
                             root: str, out_dir: str) -> list[str]:
    """Append the source model's flattened capsule vector to every frame.

    Each clip's feature matrix, as materialize() gives it, gains
    n_src_classes * caps_dim constant extra dims and is written in the cache
    format under out_dir, mirroring the manifest's relative paths. The
    original dims are bit-identical to a plain feature cache; the extra dims
    are the f32 of caps_vectors() over the clips' model inputs.
    """
    mats = materialize(manifest, root)
    if trained.scaler is not None:  # without one, inputs() says so
        check_widths(manifest, mats, trained.scaler, "the checkpoint")
    caps = trained.caps_vectors(trained.inputs(mats)).reshape(len(mats), -1)
    written = []
    for entry, m, vec in zip(manifest.entries, mats, caps):
        extra = np.broadcast_to(vec, (m.shape[0], vec.size))
        path = cache_path(out_dir, entry.path)
        write_cache(path, np.concatenate([m, extra], axis=1))
        written.append(path)
    return written
