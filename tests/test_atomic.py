import argparse
import builtins
import errno
import os

import pytest

from capsaudio import atomic, cli
from capsaudio.analysis import write_scatter
from capsaudio.audio import AudioClip, write_wav
from capsaudio.config import RunConfig, save_config
from capsaudio.manifest import DatasetManifest, ManifestEntry, save_manifest
from capsaudio.synthdata import make_digit_dataset
from capsaudio.train import run_training, write_grid_table

TINY = RunConfig(caps_dim=2, routing_iters=1, hidden_size=4, dropout=0.0,
                 batch_size=8, epochs=1, T_fix=20, seed=0)


def _confusion(path):
    data = os.path.join(os.path.dirname(path), "data")
    make_digit_dataset(data, digits=range(2), clips_per=1, seed=1)
    run_training(TINY, data, out_dir=os.path.dirname(path))


# Each writer replaces the file at path with one artifact.
WRITERS = {
    "config.cfg": lambda path: save_config(path, TINY),
    "train.csv": lambda path: save_manifest(path, DatasetManifest(
        [ManifestEntry("a.wav", frozenset({"x"}))], "train")),
    "grid_routing.csv": lambda path: write_grid_table(
        path, "routing", [{"axis": "routing", "value": 1, "seed": 0, "metric": 0.5}],
        "accuracy"),
    "scatter_amplitude.csv": lambda path: write_scatter(path, [(0.1, 1.0, 2.0)], "ab", None),
    "confusion.csv": _confusion,
    "pair.wav": lambda path: write_wav(path, AudioClip([0.1, -0.2, 0.3], 8000)),
    "grad.txt": lambda path: cli._cmd_gradcheck(argparse.Namespace(trials=1, out=path)),
}


class _DiskFull:
    """A binary file whose first write stores half its bytes, then fails."""

    def __init__(self, path):
        self.fh = builtins.open(path, "wb")

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", WRITERS)
def test_write_failing_midway_keeps_old_file(name, tmp_path, monkeypatch):
    path = tmp_path / name
    path.write_bytes(b"old\n")

    def failing_open(file, mode):
        if os.path.basename(file).startswith(name + "."):
            return _DiskFull(file)
        return builtins.open(file, mode)

    monkeypatch.setattr(atomic, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](str(path))
    assert path.read_bytes() == b"old\n"
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
