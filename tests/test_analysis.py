import os

import numpy as np
import pytest

from capsaudio.analysis import (AugmentSpec, augment, capsule_scatter,
                                export_transfer_features, fit_pca, write_scatter)
from capsaudio.audio import AudioClip, load_wav
from capsaudio.config import RunConfig
from capsaudio.errors import ConfigError, FormatError
from capsaudio.features import ScalerParams, read_cache
from capsaudio.manifest import load_manifest, materialize
from capsaudio.synthdata import make_digit_dataset
from capsaudio.train import make_dataset, run_training


# --- augment ------------------------------------------------------------------

def tone(freq=300.0, n=8000, rate=16000, amp=0.4):
    t = np.arange(n) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def test_augment_amplitude_zero_identity():
    clip = tone()
    out = augment(clip, AugmentSpec("amplitude", (0.0, 0.1)), 0.0)
    np.testing.assert_array_equal(out.samples, clip.samples)


def test_augment_amplitude_offset_and_clip():
    clip = AudioClip(np.array([0.0, 0.95, -0.95]), 16000)
    out = augment(clip, AugmentSpec("amplitude", (0.1,)), 0.1)
    np.testing.assert_allclose(out.samples, [0.1, 1.0, -0.85])


def test_augment_speed_identity():
    clip = tone()
    out = augment(clip, AugmentSpec("speed", (1.0, 2.0)), 1.0)
    np.testing.assert_array_equal(out.samples, clip.samples)
    assert out.sample_rate == clip.sample_rate


def test_augment_speed_halves_length():
    clip = tone(n=16000)
    out = augment(clip, AugmentSpec("speed", (2.0,)), 2.0)
    assert out.samples.size == 8000
    assert out.sample_rate == 16000


def test_augment_purity():
    clip = tone()
    before = clip.samples.copy()
    a = augment(clip, AugmentSpec("amplitude", (0.05,)), 0.05)
    b = augment(clip, AugmentSpec("amplitude", (0.05,)), 0.05)
    np.testing.assert_array_equal(clip.samples, before)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_augment_spec_validation():
    with pytest.raises(ConfigError):
        AugmentSpec("speed", (0.0, 1.0))
    with pytest.raises(ConfigError):
        AugmentSpec("speed", ())
    with pytest.raises(ConfigError):
        AugmentSpec("amplitude", (0.1, 0.1))
    with pytest.raises(ConfigError):
        AugmentSpec("pitch", (1.0,))
    for kind, level in [("speed", float("nan")), ("amplitude", float("inf"))]:
        with pytest.raises(ConfigError):
            AugmentSpec(kind, (level,))
    with pytest.raises(ConfigError):
        augment(tone(), AugmentSpec("speed", (1.0,)), -2.0)


# --- PCA -----------------------------------------------------------------------

def test_pca_rank_one_line(rng):
    direction = np.array([3.0, 4.0]) / 5.0
    pts = rng.normal(size=(50, 1)) * direction
    pca = fit_pca(pts, 2)
    assert pca.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-10)
    assert pca.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-10)


def test_pca_isotropic_gaussian_matches_covariance_oracle():
    rng = np.random.default_rng(2024)
    pts = rng.normal(size=(10_000, 2))
    pca = fit_pca(pts, 2)
    np.testing.assert_allclose(pca.explained_variance_ratio, [0.5, 0.5], atol=0.02)
    # independent oracle: eigenvalues of the sample covariance
    eig = np.sort(np.linalg.eigvalsh(np.cov(pts.T)))[::-1]
    np.testing.assert_allclose(pca.explained_variance_ratio, eig / eig.sum(),
                               atol=1e-10)


def test_pca_mean_projects_to_origin(rng):
    pts = rng.normal(loc=5.0, size=(30, 4))
    pca = fit_pca(pts, 2)
    np.testing.assert_allclose(pca.project(pts.mean(axis=0)[None]), 0.0, atol=1e-10)


def test_pca_full_reconstruction(rng):
    pts = rng.normal(size=(40, 6))
    pca = fit_pca(pts, 6)
    centered = pts - pca.mean
    back = pca.project(pts) @ pca.components
    np.testing.assert_allclose(back, centered, atol=1e-8)


def test_pca_components_orthonormal_ratios_sorted(rng):
    pts = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
    pca = fit_pca(pts, 4)
    gram = pca.components @ pca.components.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
    r = pca.explained_variance_ratio
    assert np.all(np.diff(r) <= 1e-12)
    assert r.sum() <= 1.0 + 1e-12
    assert np.all(r >= 0.0)


def test_pca_sign_convention(rng):
    pts = rng.normal(size=(30, 3))
    pca = fit_pca(pts, 3)
    for row in pca.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_preconditions(rng):
    pts = rng.normal(size=(3, 4))
    with pytest.raises(ConfigError):
        fit_pca(pts, 0)
    with pytest.raises(ConfigError):
        fit_pca(pts, 5)
    with pytest.raises(ConfigError):
        fit_pca(pts, 3)  # needs n > n_components


# --- scatter and transfer over a tiny trained model ----------------------------

@pytest.fixture(scope="module")
def digit_run(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("digits"))
    make_digit_dataset(data_dir, digits=range(2), clips_per=2, seed=3)
    cfg = RunConfig(model="caps", caps_dim=4, routing_iters=1, use_decoder=False,
                    hidden_size=8, dropout=0.0, epochs=2, batch_size=8,
                    T_fix=40, seed=0)
    trained, _ = run_training(cfg, data_dir)
    return data_dir, trained


def test_scatter_single_clip_is_origin(digit_run):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    clip = load_wav(os.path.join(data_dir, man.entries[0].path))
    rows, pca = capsule_scatter(trained, [(clip, 0.05)], class_index=0)
    assert rows == [(0.05, 0.0, 0.0)]
    assert pca is None


def test_scatter_identical_features_identical_projection(digit_run):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    clip = load_wav(os.path.join(data_dir, man.entries[0].path))
    rows, _ = capsule_scatter(trained, [(clip, 0.0), (clip, 1.0), (clip, 2.0)],
                              class_index=0)
    assert rows[0][1:] == rows[1][1:] == rows[2][1:]


def test_scatter_two_clips_second_axis_zero(digit_run, rng):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    a = load_wav(os.path.join(data_dir, man.entries[0].path))
    b = load_wav(os.path.join(data_dir, man.entries[1].path))
    rows, pca = capsule_scatter(trained, [(a, 0.0), (b, 1.0)], class_index=0)
    assert rows[0][2] == rows[1][2] == 0.0
    assert pca.components.shape == (1, 4)


def test_scatter_bad_class_index(digit_run):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    clip = load_wav(os.path.join(data_dir, man.entries[0].path))
    with pytest.raises(ConfigError):
        capsule_scatter(trained, [(clip, 0.0)], class_index=7)


def test_scatter_inputs_are_the_training_inputs(digit_run, monkeypatch):
    # analyze must feed the model what training fed it: the f32-rounded
    # features of materialize, scaled and padded by make_dataset.
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    clip = load_wav(os.path.join(data_dir, man.entries[0].path))
    seen = []
    forward = trained.caps_vectors
    monkeypatch.setattr(trained, "caps_vectors", lambda X: seen.append(X) or forward(X))
    capsule_scatter(trained, [(augment(clip, AugmentSpec("amplitude", (0.0,)), 0.0), 0.0)],
                    class_index=0)
    X = make_dataset(man, materialize(man, data_dir), man.class_names,
                     trained.scaler, trained.cfg.T_fix).X
    np.testing.assert_array_equal(seen[0][0], X[0])


def test_scatter_table_format(digit_run, tmp_path):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    clip = load_wav(os.path.join(data_dir, man.entries[0].path))
    rows, pca = capsule_scatter(trained, [(clip, -0.1), (clip, 0.1)], 0)
    path = tmp_path / "scatter.csv"
    write_scatter(path, rows, "deadbeef", pca)
    lines = path.read_text().splitlines()
    assert lines[0] == "# checkpoint: deadbeef"
    assert lines[1].startswith("# explained_variance_ratio:")
    assert lines[2] == "level,pc1,pc2"
    assert len(lines) == 5


def test_transfer_export_appends_constant_dims(digit_run, tmp_path):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    out_dir = str(tmp_path / "export")
    written = export_transfer_features(trained, man, data_dir, out_dir)
    assert len(written) == len(man.entries)

    base = materialize(man, data_dir)  # plain features, f32 round-tripped
    extra_dims = 2 * 4  # n_src_classes * caps_dim
    for entry, path, plain in zip(man.entries, written, base):
        aug = read_cache(path)
        assert aug.shape[1] == 60 + extra_dims
        # original dims bit-identical to the plain cache
        assert np.array_equal(aug[:, :60], plain)
        # appended dims constant across frames
        assert np.all(aug[:, 60:] == aug[0, 60:])


def test_transfer_export_dims_are_the_eval_path_capsules(digit_run, tmp_path):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    written = export_transfer_features(trained, man, data_dir, str(tmp_path / "x"))
    X = make_dataset(man, materialize(man, data_dir), man.class_names,
                     trained.scaler, trained.cfg.T_fix).X
    want = trained.caps_vectors(X).reshape(len(written), -1).astype(np.float32)
    got = np.stack([read_cache(path)[0, 60:] for path in written])
    np.testing.assert_array_equal(got, want)


def test_transfer_export_zero_capsules_zero_dims(digit_run, tmp_path):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    saved = trained.model.caps.W.data
    trained.model.caps.W.data = np.zeros_like(saved)
    try:
        written = export_transfer_features(trained, man, data_dir,
                                           str(tmp_path / "zero"))
        aug = read_cache(written[0])
        np.testing.assert_array_equal(aug[:, 60:], 0.0)
    finally:
        trained.model.caps.W.data = saved


def test_transfer_export_dim_collision(digit_run, tmp_path):
    data_dir, trained = digit_run
    man = load_manifest(os.path.join(data_dir, "test.csv"), "test")
    good = trained.scaler
    trained.scaler = ScalerParams(np.zeros(61), np.ones(61))
    try:
        with pytest.raises(FormatError, match=r"^test clip \S+ has 60 feature dims, "
                           "but the scaler from the checkpoint has 61$"):
            export_transfer_features(trained, man, data_dir, str(tmp_path / "bad"))
    finally:
        trained.scaler = good
