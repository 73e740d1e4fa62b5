"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible without -s). Training-based criteria are marked slow; everything is
seeded, so results are reproducible bit-for-bit on a given machine.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from capsaudio.analysis import (AugmentSpec, DEFAULT_AMPLITUDE_LEVELS, augment,
                                capsule_scatter)
from capsaudio.audio import AudioClip, load_wav, write_wav
from capsaudio.autodiff import Tensor
from capsaudio.capsnet import CapsuleLayer, margin_loss, squash
from capsaudio.cli import dispatch
from capsaudio.config import RunConfig
from capsaudio.features import mfcc
from capsaudio.gradcheck import full_model_check, run_suite
from capsaudio.manifest import (DatasetManifest, ManifestEntry, load_manifest,
                                save_manifest, synth_multilabel)
from capsaudio.synthdata import make_digit_dataset
from capsaudio.train import read_metrics_rows, run_training
from reference_mfcc import naive_mfcc
from test_capsnet import couplings, hand_routing, pinned_agreement_case

GRAD_TOL = 1e-4


@pytest.fixture()
def report(capsys):
    """Emit one visible pass/fail line per criterion, bypassing capture."""

    def emit(criterion: str, passed: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")

    return emit


# --- shared datasets ---------------------------------------------------------

@pytest.fixture(scope="session")
def digits_full(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("digits_full"))
    make_digit_dataset(d, digits=range(10), clips_per=4, seed=7)
    return d


@pytest.fixture(scope="session")
def feature_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("feature_cache"))


def trend_base():
    return RunConfig(model="caps", caps_dim=16, routing_iters=1,
                     use_decoder=False, recon_weight=0.1, lambda_=0.5,
                     hidden_size=32, dropout=0.2, lr=1e-3, batch_size=32,
                     epochs=12, T_fix=40, seed=0, mode="single", threshold=0.5)


@pytest.fixture(scope="session")
def trend_table(digits_full, feature_cache):
    """Best-test accuracy for every (variant, seed) the trend criteria need."""
    variants = {
        "base": {},                       # routing 1, decoder off, caps_dim 16
        "r5": {"routing_iters": 5},
        "decoder_on": {"use_decoder": True},
        "cd2": {"caps_dim": 2},
        "cd4": {"caps_dim": 4},
        "cd8": {"caps_dim": 8},
        "cd32": {"caps_dim": 32},
    }
    table = {}
    for name, fields in variants.items():
        for seed in (0, 1, 2):
            cfg = replace(trend_base(), seed=seed, **fields)
            _, metrics = run_training(cfg, digits_full, cache_dir=feature_cache)
            table[(name, seed)] = metrics.best_test_metric
    return table


# --- criterion 1: gradient suite ----------------------------------------------

def test_c1_gradient_suite(report):
    t0 = time.perf_counter()
    results = run_suite(trials=100, seed=0)
    results["full_model"] = full_model_check(trials=3)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    worst_op = max(results, key=results.get)
    ok = worst <= GRAD_TOL and elapsed < 120.0
    report("C1 gradient suite", ok,
           f"worst {worst:.2e} ({worst_op}), {len(results)} ops x 100 trials "
           f"in {elapsed:.0f}s")
    assert worst <= GRAD_TOL
    assert elapsed < 120.0


# --- criterion 2: routing invariants -------------------------------------------

def test_c2_routing_invariants(report):
    rng = np.random.default_rng(0)

    # coupling coefficients sum to 1 per primary capsule at every iteration
    worst_sum = 0.0
    for _ in range(20):
        layer = CapsuleLayer(rng, 6, 3, 4, 2, routing_iters=5)
        for c in couplings(layer, rng.normal(size=(2, 6, 3)) * 2.0):
            worst_sum = max(worst_sum, np.abs(c.sum(axis=2) - 1.0).max())

    # n_primary = 1: routing is exactly squash(W u) for any iteration count
    exact = True
    for iters in (1, 3, 5):
        layer = CapsuleLayer(rng, 1, 3, 1, 4, iters)
        u = rng.normal(size=(2, 1, 3))
        direct = squash(Tensor((u[:, 0] @ layer.W.data[0, 0].T)[:, None, :])).data
        exact = exact and np.array_equal(layer(Tensor(u)).data, direct)

    # pinned 2-capsule agreement example vs the hand-unrolled oracle
    u, W, uhat = pinned_agreement_case()
    layer = CapsuleLayer(rng, 2, 2, 2, 2, routing_iters=3)
    layer.W = Tensor(W, requires_grad=True)
    out = layer(Tensor(u)).data
    collected = couplings(layer, u)
    v_hand, cs_hand, _ = hand_routing(uhat, 3)
    oracle_err = np.abs(out[0] - v_hand).max()
    for got, want in zip(collected, cs_hand):
        oracle_err = max(oracle_err, np.abs(got[0] - want).max())

    ok = worst_sum <= 1e-12 and exact and oracle_err <= 1e-12
    report("C2 routing invariants", ok,
           f"coupling sum err {worst_sum:.1e}, exact squash identity {exact}, "
           f"agreement oracle err {oracle_err:.1e}")
    assert worst_sum <= 1e-12
    assert exact
    assert oracle_err <= 1e-12


# --- criterion 3: margin-loss unit table ----------------------------------------

def test_c3_margin_loss_table(report):
    inside = float(margin_loss(Tensor([[0.95]]), np.array([[1.0]])).data)
    present_zero = float(margin_loss(Tensor([[0.0]]), np.array([[1.0]])).data)
    absent = float(margin_loss(Tensor([[0.3]]), np.array([[0.0]]), lam=0.5).data)

    lengths = np.random.default_rng(1).uniform(0, 1, size=(4, 6))
    targets = np.zeros((4, 6))
    half = float(margin_loss(Tensor(lengths), targets, lam=0.5).data)
    full = float(margin_loss(Tensor(lengths), targets, lam=1.0).data)

    ok = (inside == 0.0
          and present_zero == 0.9 ** 2
          and absent == 0.5 * max(0.0, 0.3 - 0.1) ** 2
          and abs(absent - 0.02) < 1e-12
          and full == 2.0 * half)
    report("C3 margin-loss table", ok,
           f"values ({inside}, {present_zero}, {absent}); lambda=1 doubles: "
           f"{full == 2.0 * half}")
    assert inside == 0.0
    assert present_zero == 0.9 ** 2          # 0.81 exactly in f64
    assert absent == 0.5 * max(0.0, 0.3 - 0.1) ** 2
    assert abs(absent - 0.02) < 1e-12
    assert full == 2.0 * half


# --- criterion 4: desk-scale held-out-speaker run --------------------------------

@pytest.mark.slow
def test_c4_desk_run(report, digits_full, feature_cache):
    cfg = RunConfig(model="caps", caps_dim=16, routing_iters=1, use_decoder=True,
                    recon_weight=0.1, lambda_=0.5, hidden_size=64, dropout=0.3,
                    lr=1e-3, batch_size=32, epochs=50, T_fix=40, seed=0,
                    mode="single", threshold=0.5)
    t0 = time.perf_counter()
    _, metrics = run_training(cfg, digits_full, cache_dir=feature_cache)
    elapsed = time.perf_counter() - t0
    acc = metrics.best_test_metric
    ok = acc >= 0.55 and elapsed < 45 * 60
    report("C4 desk run", ok,
           f"held-out-speaker accuracy {acc:.3f} (>= 0.55) in {elapsed:.0f}s, "
           f"best epoch {metrics.best_epoch}")
    assert acc >= 0.55
    assert elapsed < 45 * 60


# --- criterion 5: directional trends ---------------------------------------------

@pytest.mark.slow
def test_c5a_routing_direction(report, trend_table):
    wins = [trend_table[("base", s)] >= trend_table[("r5", s)] for s in (0, 1, 2)]
    pairs = [(trend_table[('base', s)], trend_table[('r5', s)]) for s in (0, 1, 2)]
    ok = sum(wins) >= 2
    report("C5a routing r=1 >= r=5", ok, f"per-seed (r1, r5): {pairs}")
    assert sum(wins) >= 2


@pytest.mark.slow
def test_c5b_regularization_direction(report, trend_table):
    wins = [trend_table[("decoder_on", s)] >= trend_table[("base", s)]
            for s in (0, 1, 2)]
    pairs = [(trend_table[('decoder_on', s)], trend_table[('base', s)])
             for s in (0, 1, 2)]
    ok = sum(wins) >= 2
    report("C5b decoder on >= off", ok, f"per-seed (on, off): {pairs}")
    assert sum(wins) >= 2


@pytest.mark.slow
def test_c5c_caps_dim_rise_then_fall(report, trend_table):
    wins = []
    rows = {}
    for s in (0, 1, 2):
        interior = max(trend_table[("cd4", s)], trend_table[("cd8", s)],
                       trend_table[("base", s)])  # base is caps_dim 16
        edges = max(trend_table[("cd2", s)], trend_table[("cd32", s)])
        wins.append(interior >= edges)
        rows[s] = [trend_table[(k, s)] for k in ("cd2", "cd4", "cd8", "base", "cd32")]
    ok = sum(wins) >= 2
    report("C5c caps-dim interior >= edges", ok,
           f"accuracy over dims 2,4,8,16,32 per seed: {rows}")
    assert sum(wins) >= 2


# --- criterion 6: multi-label caps vs attention baseline ---------------------------

@pytest.mark.slow
def test_c6_multilabel(report, tmp_path_factory):
    src = str(tmp_path_factory.mktemp("multi_src"))
    multi = str(tmp_path_factory.mktemp("multi_data"))
    make_digit_dataset(src, digits=range(10), clips_per=3, seed=7)
    for split, n_pairs in (("train", 160), ("test", 40)):
        man = load_manifest(os.path.join(src, f"{split}.csv"), split)
        out = synth_multilabel(man, src, multi, seed=11, n_pairs=n_pairs)
        save_manifest(os.path.join(multi, f"{split}.csv"), out)

    base = RunConfig(model="caps", caps_dim=16, routing_iters=1,
                     use_decoder=False, recon_weight=0.1, lambda_=1.0,
                     hidden_size=32, dropout=0.2, lr=1e-3, batch_size=16,
                     epochs=20, T_fix=80, seed=0, mode="multi", threshold=0.5)
    _, caps_metrics = run_training(base, multi)
    _, att_metrics = run_training(replace(base, model="att"), multi)
    caps_acc = caps_metrics.best_test_metric
    att_acc = att_metrics.best_test_metric
    ok = caps_acc >= att_acc
    report("C6 multi-label caps >= att", ok,
           f"weighted accuracy caps {caps_acc:.4f} vs att {att_acc:.4f}")
    assert caps_acc >= att_acc


# --- criterion 7: capsule-space PCA separation --------------------------------------

@pytest.mark.slow
def test_c7_pca_amplitude_separation(report, tmp_path_factory):
    src = str(tmp_path_factory.mktemp("pca_src"))
    aug_dir = str(tmp_path_factory.mktemp("pca_aug"))
    make_digit_dataset(src, digits=range(5), clips_per=3, seed=7)
    spec = AugmentSpec("amplitude", DEFAULT_AMPLITUDE_LEVELS)

    # train split: every clip at every offset level; test split copied as-is
    os.makedirs(os.path.join(aug_dir, "wav"), exist_ok=True)
    man = load_manifest(os.path.join(src, "train.csv"), "train")
    entries = []
    for e in man.entries:
        clip = load_wav(os.path.join(src, e.path))
        for lvl in spec.levels:
            rel = e.path.replace(".wav", f"_L{lvl}.wav")
            write_wav(os.path.join(aug_dir, rel), augment(clip, spec, lvl))
            entries.append(ManifestEntry(rel, e.labels))
    save_manifest(os.path.join(aug_dir, "train.csv"),
                  DatasetManifest(entries, "train"))
    test_man = load_manifest(os.path.join(src, "test.csv"), "test")
    for e in test_man.entries:
        write_wav(os.path.join(aug_dir, e.path), load_wav(os.path.join(src, e.path)))
    save_manifest(os.path.join(aug_dir, "test.csv"), test_man)

    cfg = RunConfig(model="caps", caps_dim=16, routing_iters=1, use_decoder=True,
                    recon_weight=0.1, lambda_=0.5, hidden_size=32, dropout=0.2,
                    lr=1e-3, batch_size=32, epochs=12, T_fix=40, seed=0,
                    mode="single", threshold=0.5)
    trained, _ = run_training(cfg, aug_dir)

    # project the same audio at every offset level, one scatter per clip
    ratios, evr_sums = [], []
    target = [e for e in test_man.entries if "digit_0" in e.labels]
    for e in target:
        clip = load_wav(os.path.join(aug_dir, e.path))
        pairs = [(augment(clip, spec, lvl), lvl) for lvl in spec.levels]
        rows, pca = capsule_scatter(trained, pairs, class_index=0)
        pts = np.array([(r[1], r[2]) for r in rows])
        lvls = np.array([r[0] for r in rows])
        pos, neg = pts[lvls > 0], pts[lvls < 0]
        cp, cn = pos.mean(axis=0), neg.mean(axis=0)
        dist = np.linalg.norm(cp - cn)
        radius = np.concatenate([np.linalg.norm(pos - cp, axis=1),
                                 np.linalg.norm(neg - cn, axis=1)]).mean()
        ratios.append(float(dist / max(radius, 1e-12)))
        evr_sums.append(float(pca.explained_variance_ratio.sum()))

    ok = all(r >= 1.0 for r in ratios) and all(s >= 0.5 for s in evr_sums)
    report("C7 PCA amplitude separation", ok,
           f"centroid/radius ratios {[round(r, 2) for r in ratios]}, "
           f"top-2 EVR sums {[round(s, 2) for s in evr_sums]}")
    assert all(r >= 1.0 for r in ratios)
    assert all(s >= 0.5 for s in evr_sums)


# --- criterion 8: determinism and round-trip -----------------------------------------

@pytest.mark.slow
def test_c8_determinism_round_trip(report, capsys, tmp_path_factory, digits_full,
                                   feature_cache):
    out_a = str(tmp_path_factory.mktemp("det_a"))
    out_b = str(tmp_path_factory.mktemp("det_b"))
    cfg = replace(trend_base(), epochs=4)
    run_training(cfg, digits_full, out_dir=out_a, cache_dir=feature_cache)
    run_training(cfg, digits_full, out_dir=out_b, cache_dir=feature_cache)

    with open(os.path.join(out_a, "checkpoint.cpsn"), "rb") as fa, \
            open(os.path.join(out_b, "checkpoint.cpsn"), "rb") as fb:
        bit_identical = fa.read() == fb.read()

    rows_a, rows_b = (read_metrics_rows(os.path.join(out, "metrics.csv"))
                      for out in (out_a, out_b))
    metrics_equal = [r[:3] for r in rows_a] == [r[:3] for r in rows_b]  # all but seconds

    # the reloaded checkpoint scores the test split through the eval verb
    capsys.readouterr()
    assert dispatch(["eval", "--checkpoint", os.path.join(out_a, "checkpoint.cpsn"),
                     "--data", digits_full, "--features", feature_cache]) == 0
    reloaded_acc = float(capsys.readouterr().out.strip().rsplit("=", 1)[1])
    accuracy_preserved = reloaded_acc == max(r[2] for r in rows_a)

    ok = bit_identical and metrics_equal and accuracy_preserved
    report("C8 determinism & round-trip", ok,
           f"checkpoints identical {bit_identical}, metrics identical "
           f"{metrics_equal}, reloaded accuracy {reloaded_acc:.3f} == best "
           f"{accuracy_preserved}")
    assert bit_identical
    assert metrics_equal
    assert accuracy_preserved


# --- criterion 9: feature pipeline vs naive reference ---------------------------------

def test_c9_feature_oracle(report):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        samples = rng.uniform(-0.8, 0.8, size=640)  # exactly one frame
        prod = mfcc(AudioClip(samples, 16000))
        ref = naive_mfcc(samples)
        worst = max(worst, np.abs(prod - ref).max() / np.abs(ref).max())
    ok = worst <= 1e-6
    report("C9 feature oracle", ok,
           f"max relative error {worst:.2e} over 100 random frames")
    assert worst <= 1e-6
