import hashlib
import os
import shutil

import pytest

from capsaudio import gradcheck, manifest
from capsaudio.checkpoint import load_checkpoint, save_checkpoint
from capsaudio.cli import dispatch
from capsaudio.config import load_config
from capsaudio.features import mfcc, read_cache
from capsaudio.gradcheck import CHECKS
from capsaudio.manifest import DatasetManifest, load_manifest, save_manifest
from capsaudio.synthdata import make_digit_dataset
from capsaudio.train import read_metrics_rows


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cli_digits"))
    make_digit_dataset(d, digits=range(2), clips_per=2, seed=5)
    return d


@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    text = "\n".join([
        "model=caps", "caps_dim=4", "routing_iters=1", "use_decoder=false",
        "recon_weight=0.1", "lambda=0.5", "hidden_size=8", "dropout=0.0",
        "lr=0.001", "batch_size=8", "epochs=2", "T_fix=40", "seed=0",
        "mode=single", "threshold=0.5",
    ])
    cfg.write_text(text + "\n")
    return str(cfg)


@pytest.fixture(scope="module")
def run_dir(tiny_data, tiny_cfg_file, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "r1")
    code = dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", out])
    assert code == 0
    return out


def test_usage_errors(capsys):
    assert dispatch([]) == 2
    assert dispatch(["unknown-verb"]) == 2
    assert dispatch(["train"]) == 2  # missing required flags
    assert dispatch(["gradcheck", "--trials", "0"]) == 2  # would check nothing
    run = ["--config", "c", "--data", "d", "--out", "o"]
    for n in ("0", "-1"):
        assert dispatch(["grid"] + run + ["--axis", "routing", "--jobs", n]) == 2
        assert dispatch(["synth-multilabel", "--data", "d", "--out", "o",
                         "--pairs", n]) == 2
    capsys.readouterr()
    # --jobs is grid's alone: runs trained at a time
    for argv in (["features", "--data", "d", "--out", "o"], ["train"] + run):
        assert dispatch(argv + ["--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_bad_seed_list_is_usage_error(tiny_data, tiny_cfg_file, tmp_path, capsys):
    code = dispatch(["grid", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", str(tmp_path / "g"), "--axis", "routing", "--seeds", "0,,1"])
    assert code == 2
    assert "argument --seeds" in capsys.readouterr().err


def test_bad_level_list_is_usage_error(run_dir, tiny_data, tmp_path, capsys):
    code = dispatch(["analyze", "--checkpoint", os.path.join(run_dir, "checkpoint.cpsn"),
                     "--data", tiny_data, "--kind", "amplitude", "--target-class",
                     "digit_1", "--out", str(tmp_path / "s"), "--levels", "0.9,x"])
    assert code == 2
    assert "argument --levels" in capsys.readouterr().err


def test_train_run_dir_contents(run_dir, tiny_cfg_file):
    for name in ("config.cfg", "metrics.csv", "checkpoint.cpsn", "confusion.csv"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    cfg = load_config(os.path.join(run_dir, "config.cfg"))
    assert cfg == load_config(tiny_cfg_file)
    rows = read_metrics_rows(os.path.join(run_dir, "metrics.csv"))
    assert len(rows) == 2


def test_train_refuses_overwrite(run_dir, tiny_data, tiny_cfg_file):
    code = dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", run_dir])
    assert code == 3
    code = dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", run_dir, "--force"])
    assert code == 0


def test_train_set_override_is_echoed(tiny_data, tiny_cfg_file, tmp_path):
    out = str(tmp_path / "r2")
    code = dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", out, "--set", "routing_iters=3", "--set", "seed=9"])
    assert code == 0
    cfg = load_config(os.path.join(out, "config.cfg"))
    assert cfg.routing_iters == 3 and cfg.seed == 9


def test_config_violation_exit_code(tiny_data, tiny_cfg_file, tmp_path):
    code = dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", str(tmp_path / "r3"), "--set", "dropout=2.0"])
    assert code == 3


def test_eval_prints_metric(run_dir, tiny_data, capsys):
    code = dispatch(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.cpsn"),
                     "--data", tiny_data])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out


def _without_digit_0(src, dst, splits):
    """Copy the dataset under src to dst, dropping digit_0 from the given splits."""
    shutil.copytree(src, dst)
    for split in splits:
        path = os.path.join(dst, f"{split}.csv")
        man = load_manifest(path, split)
        kept = [e for e in man.entries if "digit_0" not in e.labels]
        save_manifest(path, DatasetManifest(kept, split))
    return str(dst)


def test_eval_on_split_missing_a_class(run_dir, tiny_data, tmp_path, capsys):
    # Classes come from train.csv and test.csv together, so a test split
    # without digit_0 still maps to the checkpoint's two classes.
    data = _without_digit_0(tiny_data, tmp_path / "subset", ["test"])
    code = dispatch(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.cpsn"),
                     "--data", data])
    assert code == 0
    assert "accuracy=" in capsys.readouterr().out


def test_class_count_mismatch_exit_code(run_dir, tiny_data, tmp_path, capsys):
    data = _without_digit_0(tiny_data, tmp_path / "one_class", ["train", "test"])
    ckpt = os.path.join(run_dir, "checkpoint.cpsn")
    code = dispatch(["analyze", "--checkpoint", ckpt, "--data", data,
                     "--kind", "amplitude", "--target-class", "digit_1",
                     "--out", str(tmp_path / "s")])
    assert code == 3
    assert "has 1 classes" in capsys.readouterr().err
    assert dispatch(["eval", "--checkpoint", ckpt, "--data", data]) == 3
    assert "checkpoint has 2" in capsys.readouterr().err


def test_features_verb_writes_cache(tiny_data, tmp_path):
    cache = str(tmp_path / "cache")
    assert dispatch(["features", "--data", tiny_data, "--out", cache]) == 0
    cached = [os.path.join(dp, f) for dp, _, fs in os.walk(cache) for f in fs]
    assert len(cached) == 12  # 2 digits x 2 clips x 3 speakers
    m = read_cache(cached[0])
    assert m.shape[1] == 60


def test_train_from_feature_cache_matches_direct(run_dir, tiny_data,
                                                 tiny_cfg_file, tmp_path):
    cache = str(tmp_path / "cache")
    dispatch(["features", "--data", tiny_data, "--out", cache])
    out = str(tmp_path / "r4")
    code = dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", out, "--features", cache])
    assert code == 0
    direct = read_metrics_rows(os.path.join(run_dir, "metrics.csv"))
    cached = read_metrics_rows(os.path.join(out, "metrics.csv"))
    assert [r[:3] for r in direct] == [r[:3] for r in cached]


def test_grid_table(tiny_data, tiny_cfg_file, tmp_path):
    out = str(tmp_path / "grid")
    code = dispatch(["grid", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", out, "--axis", "regularization", "--seeds", "0"])
    assert code == 0
    table = os.path.join(out, "grid_regularization.csv")
    with open(table) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "axis,value,seed,best_test_metric"
    assert len(lines) == 4  # header comment + columns + 2 rows


def test_grid_computes_each_clip_once(tiny_data, tiny_cfg_file, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return mfcc(*args)

    monkeypatch.setattr(manifest, "mfcc", counted)
    code = dispatch(["grid", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", str(tmp_path / "grid"), "--axis", "regularization",
                     "--seeds", "0,1"])
    assert code == 0
    mans = [load_manifest(os.path.join(tiny_data, f"{s}.csv"), s) for s in ("train", "test")]
    assert len(calls) == len({e.path for m in mans for e in m.entries})


def test_gradcheck_verb(tmp_path, capsys):
    report = str(tmp_path / "grad.txt")
    code = dispatch(["gradcheck", "--trials", "1", "--out", report])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line.split()[0] for line in out.splitlines()[:-1]]
    assert rows == [*CHECKS, "full_model"]
    assert os.path.exists(report)


def test_gradcheck_out_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gradcheck, "run_suite", lambda **kw: calls.append(kw) or {})
    report = str(tmp_path / "absent" / "g.txt")
    assert dispatch(["gradcheck", "--trials", "1", "--out", report]) == 1
    assert capsys.readouterr().err == f"error: {report}: No such file or directory\n"
    assert calls == []


def test_synth_multilabel_verb(tiny_data, tmp_path):
    out = str(tmp_path / "multi")
    code = dispatch(["synth-multilabel", "--data", tiny_data, "--out", out,
                     "--seed", "4", "--pairs", "6"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "train.csv"))
    assert os.path.exists(os.path.join(out, "test.csv"))
    wavs = [f for f in os.listdir(out) if f.endswith(".wav")]
    assert len(wavs) == 12  # 6 pairs per split


def test_analyze_verb(run_dir, tiny_data, tmp_path):
    out = str(tmp_path / "scatter")
    code = dispatch(["analyze", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.cpsn"),
                     "--data", tiny_data, "--kind", "amplitude",
                     "--target-class", "digit_1", "--out", out])
    assert code == 0
    table = os.path.join(out, "scatter_amplitude.csv")
    with open(table) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# checkpoint: ")
    assert lines[2] == "level,pc1,pc2"
    assert len(lines) == 3 + 2 * 4  # 2 test clips x 4 default levels


def test_analyze_digest_is_checkpoint_sha256(run_dir, tiny_data, tmp_path):
    ckpt = os.path.join(run_dir, "checkpoint.cpsn")
    out = str(tmp_path / "scatter")
    assert dispatch(["analyze", "--checkpoint", ckpt, "--data", tiny_data,
                     "--kind", "speed", "--target-class", "digit_0", "--out", out]) == 0
    with open(os.path.join(out, "scatter_speed.csv")) as fh:
        header = fh.readline()
    with open(ckpt, "rb") as fh:
        assert header == f"# checkpoint: {hashlib.sha256(fh.read()).hexdigest()}\n"


# Each case: argv with {tmp}, {data} and {cfg} filled in, and the
# path the error line must name. Under {tmp}, "file" is a regular file and
# "dir" an empty directory; "absent" does not exist.
FILE_ERRORS = {
    "missing-checkpoint": (["eval", "--checkpoint", "{tmp}/absent.cpsn", "--data", "{data}"],
                           "{tmp}/absent.cpsn"),
    "dir-as-checkpoint": (["eval", "--checkpoint", "{tmp}/dir", "--data", "{data}"],
                          "{tmp}/dir"),
    "missing-data-dir": (["features", "--data", "{tmp}/absent", "--out", "{tmp}/x"],
                         "{tmp}/absent"),
    "file-as-data": (["features", "--data", "{tmp}/file", "--out", "{tmp}/x"], "{tmp}/file"),
    "missing-config": (["train", "--config", "{tmp}/absent.cfg", "--data", "{data}",
                        "--out", "{tmp}/r"], "{tmp}/absent.cfg"),
    "dir-as-config": (["train", "--config", "{tmp}/dir", "--data", "{data}",
                       "--out", "{tmp}/r"], "{tmp}/dir"),
    "train-out-is-file": (["train", "--config", "{cfg}", "--data", "{data}",
                           "--out", "{tmp}/file"], "{tmp}/file"),
    "grid-out-is-file": (["grid", "--config", "{cfg}", "--data", "{data}",
                          "--out", "{tmp}/file", "--axis", "routing"], "{tmp}/file"),
    "synth-multilabel-out-is-file": (["synth-multilabel", "--data", "{data}",
                                      "--out", "{tmp}/file"], "{tmp}/file"),
    "features-out-is-file": (["features", "--data", "{data}", "--out", "{tmp}/file"],
                             "{tmp}/file"),
    "gradcheck-out-in-missing-dir": (["gradcheck", "--trials", "1",
                                      "--out", "{tmp}/absent/grad.txt"],
                                     "{tmp}/absent/grad.txt"),
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_error_is_one_error_line(case, tiny_data, tiny_cfg_file, tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "dir").mkdir()
    before = sorted(os.walk(tmp_path))
    argv, path = FILE_ERRORS[case]
    fill = dict(tmp=tmp_path, data=tiny_data, cfg=tiny_cfg_file)
    code = dispatch([a.format(**fill) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert path.format(**fill) in err
    assert sorted(os.walk(tmp_path)) == before  # nothing created


@pytest.mark.parametrize("verb", [
    ["eval"],
    ["analyze", "--kind", "amplitude", "--target-class", "digit_1", "--out", "{tmp}/s"],
    ["transfer", "--out", "{tmp}/t"],
], ids=lambda verb: verb[0])
def test_checkpoint_without_scaler_is_config_error(verb, run_dir, tiny_data,
                                                   tmp_path, capsys):
    cfg, blocks = load_checkpoint(os.path.join(run_dir, "checkpoint.cpsn"))
    del blocks["scaler.min"], blocks["scaler.max"]
    ckpt = str(tmp_path / "no_scaler.cpsn")
    save_checkpoint(ckpt, cfg, blocks)
    argv = [verb[0], "--checkpoint", ckpt, "--data", tiny_data]
    code = dispatch(argv + [a.format(tmp=tmp_path) for a in verb[1:]])
    assert code == 3
    assert capsys.readouterr().err == "error: checkpoint carries no feature scaler\n"


def test_analyze_unknown_class(run_dir, tiny_data, tmp_path):
    code = dispatch(["analyze", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.cpsn"),
                     "--data", tiny_data, "--kind", "amplitude",
                     "--target-class", "digit_9", "--out", str(tmp_path / "s")])
    assert code == 3


def test_transfer_verb(run_dir, tiny_data, tmp_path):
    out = str(tmp_path / "export")
    code = dispatch(["transfer", "--checkpoint",
                     os.path.join(run_dir, "checkpoint.cpsn"),
                     "--data", tiny_data, "--out", out])
    assert code == 0
    files = [os.path.join(dp, f) for dp, _, fs in os.walk(out) for f in fs
             if f.endswith(".cafe")]
    assert len(files) == 12
    assert read_cache(files[0]).shape[1] == 60 + 2 * 4


def test_transfer_on_baseline_is_config_error(tiny_data, tiny_cfg_file, tmp_path, capsys):
    run = str(tmp_path / "lstm")
    assert dispatch(["train", "--config", tiny_cfg_file, "--data", tiny_data,
                     "--out", run, "--set", "model=lstm", "--set", "epochs=1"]) == 0
    code = dispatch(["transfer", "--checkpoint", os.path.join(run, "checkpoint.cpsn"),
                     "--data", tiny_data, "--out", str(tmp_path / "export")])
    assert code == 3
    assert "model=lstm" in capsys.readouterr().err


def test_commands_do_not_mutate_inputs(tiny_data, run_dir):
    # dataset files untouched by the runs above
    with open(os.path.join(tiny_data, "train.csv")) as fh:
        man = fh.read()
    assert man.startswith("# split: train")
    wavs = sorted(os.listdir(os.path.join(tiny_data, "wav")))
    assert len(wavs) == 12
