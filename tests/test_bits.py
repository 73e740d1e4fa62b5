"""Training bits pinned on one numpy and BLAS build.

Six tiny configs train for 2 epochs on 26 clips at batch 10, so every epoch
ends with a partial batch of 6. Each run's sha256 over its model_blocks and
its per-epoch mean losses must equal the TABLE entry. The table was made on
BUILD: the numpy version and OpenBLAS's build string, which names its version
and the CPU kernels it picked at run time. Other kernels sum matrix products
in another order, so on any other build the test skips and names both builds.
This is the README's determinism scope.

At these sizes the digests were the same at 1 and 2 BLAS threads, so this
test does not show that training bits are independent of the BLAS thread
count; that needs a larger test.

A change that moves training bits on purpose updates TABLE in the same
commit.
"""

import hashlib

import numpy as np
import pytest

from capsaudio import blas
from capsaudio.config import RunConfig
from capsaudio.train import ArrayDataset, model_blocks, train

BUILD = ("numpy 2.4.6, OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
         "SkylakeX MAX_THREADS=64")

BASE = dict(caps_dim=2, hidden_size=4, dropout=0.2, lr=1e-2, batch_size=10, epochs=2,
            T_fix=6, seed=0)

# name: (RunConfig fields beyond BASE, sha256 of model_blocks, per-epoch mean losses)
TABLE = {
    "caps_r3": (dict(model="caps", routing_iters=3),
                "edc4b9400fc532d40b4e6b0eb792c0fc2d4425822a72f6eeabdfe3865ed484b1",
                (0.803743624006481, 0.7827394287636716)),
    "caps_r1_decoder": (dict(model="caps", routing_iters=1, use_decoder=True),
                        "06d4a455abd7948f4e2699d14e176cdd8e53c6792bb4591e59dc6d2009e0e764",
                        (0.859982777904821, 0.8233634778726274)),
    "lstm": (dict(model="lstm"),
             "607930d80911a021c24fc3929e3a501ec8e15c0d5cdbc9dd2ba4e8531a05e1f1",
             (0.9997706276721098, 0.9403530183394277)),
    "att": (dict(model="att"),
            "5737d9c6c146095451ae72973a027541a8a4c05dd8cea1797786516aaf073a6b",
            (1.0396285012220032, 0.9713879417390193)),
    "caps_multi": (dict(model="caps", routing_iters=3, mode="multi"),
                   "b40ad598d8e506161466b2b86d2146ac302be87cc919a218ff5293480bb07d57",
                   (1.2115890763456356, 1.214741186356503)),
    "att_multi": (dict(model="att", mode="multi"),
                  "ef2a9db47f15ab30bf8373d44000b446608737f92e9dd207089026a93edf2dfe",
                  (2.0438012941709096, 1.9783331915927658)),
}


def build() -> str:
    return f"numpy {np.__version__}, {blas.config()}"


def dataset(mode: str) -> ArrayDataset:
    """26 clips of [6 frames, 4 dims] in 3 classes; in multi mode every
    fourth clip carries a second label."""
    rng = np.random.default_rng(0)
    labels = np.arange(26) % 3
    X = rng.uniform(size=(26, 6, 4)) + 0.5 * labels[:, None, None]
    Y = np.eye(3)[labels]
    if mode == "multi":
        Y[::4, (labels[::4] + 1) % 3] = 1.0
    return ArrayDataset(X, Y)


def digest(blocks) -> str:
    h = hashlib.sha256()
    for name in sorted(blocks):
        h.update(name.encode())
        h.update(np.ascontiguousarray(blocks[name]).tobytes())
    return h.hexdigest()


def run(fields: dict) -> tuple[str, tuple[float, ...]]:
    """Train one config on dataset() (its own test split too) and return the
    best epoch's digest and every epoch's mean training loss."""
    cfg = RunConfig(**BASE, **fields)
    ds = dataset(cfg.mode)
    trained, metrics = train(cfg, ds, ds)
    return digest(model_blocks(trained.model)), tuple(metrics.train_loss)


@pytest.mark.parametrize("name", list(TABLE))
def test_training_bits_match_table(name):
    if build() != BUILD:
        pytest.skip(f"table made on {BUILD!r}; this is {build()!r}")
    fields, want_digest, want_losses = TABLE[name]
    assert run(fields) == (want_digest, want_losses)


@pytest.mark.skipif(blas.threads() is None, reason="BLAS is not OpenBLAS")
def test_build_names_openblas():
    # A build() that lost the BLAS string would make the table test skip quietly.
    assert blas.config().startswith("OpenBLAS ")
