"""Training loop, evaluation metrics, dataset preparation and the
experiment grid."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .atomic import atomic_write, write_text
from .autodiff import Graph, Tensor
from .capsnet import predict
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_to_text, save_config, validate
from .errors import ConfigError, DivergenceFault, InsufficientData, NumericsFault, ShapeError
from .features import ScalerParams, apply_scaler, fit_scaler
from .manifest import load_manifest, materialize, targets_for
from .models import build_model
from .optim import Adam

EVAL_BATCH = 64


# ---------------------------------------------------------------------------
# datasets

@dataclass
class ArrayDataset:
    """Scaled, fixed-length model inputs with multi-hot targets."""

    X: np.ndarray            # [N, T_fix, n_dims]
    Y: np.ndarray            # [N, n_classes]

    def __len__(self):
        return self.X.shape[0]


def pad_to(mat: np.ndarray, t_fix: int) -> np.ndarray:
    """Zero-pad or truncate [T, D] to [t_fix, D]."""
    t, d = mat.shape
    if t >= t_fix:
        return mat[:t_fix]
    out = np.zeros((t_fix, d))
    out[:t] = mat
    return out


def model_inputs(mats, scaler: ScalerParams, t_fix: int) -> np.ndarray:
    """Scaled, padded [N, t_fix, dims] model inputs from feature arrays."""
    return np.stack([pad_to(apply_scaler(m, scaler), t_fix) for m in mats])


def make_dataset(manifest, mats, class_names: list[str], scaler: ScalerParams,
                 t_fix: int) -> ArrayDataset:
    return ArrayDataset(model_inputs(mats, scaler, t_fix), targets_for(manifest, class_names))


def load_splits(data_dir: str):
    """The train and test manifests under data_dir, by split name, and the
    class order every verb uses: the sorted union of both splits' labels."""
    mans = {split: load_manifest(os.path.join(data_dir, f"{split}.csv"), split)
            for split in ("train", "test")}
    return mans, sorted(set().union(*(m.class_names for m in mans.values())))


def prepare_data(data_dir: str, t_fix: int, cache_dir: str | None = None):
    """Load train.csv/test.csv under data_dir into model-ready arrays.

    The min-max scaler is fitted on the training split. Class order is
    load_splits'.
    """
    mans, class_names = load_splits(data_dir)
    mats = {split: materialize(man, data_dir, cache_dir=cache_dir)
            for split, man in mans.items()}
    scaler = fit_scaler(mats["train"])
    train_ds, test_ds = (make_dataset(mans[split], mats[split], class_names, scaler, t_fix)
                         for split in ("train", "test"))
    return train_ds, test_ds, scaler


# ---------------------------------------------------------------------------
# metrics

def accuracy(preds: np.ndarray, targets: np.ndarray, mode: str) -> float:
    """single: fraction of exactly-correct rows. multi: per-class binary
    accuracy averaged over classes and examples (weighted accuracy)."""
    if preds.shape != targets.shape:
        raise ShapeError(f"preds {preds.shape} vs targets {targets.shape}")
    if mode == "single":
        return float(np.mean(np.all(preds == targets, axis=1)))
    return float(np.mean(preds == targets))


def confusion_matrix(preds: np.ndarray, targets: np.ndarray, mode: str) -> np.ndarray:
    """single: [C, C] counts, rows = true class. multi: per-class binary
    counts [C, 4] ordered tp, fp, fn, tn."""
    C = targets.shape[1]
    if mode == "single":
        out = np.zeros((C, C), dtype=np.int64)
        for t, p in zip(targets.argmax(axis=1), preds.argmax(axis=1)):
            out[t, p] += 1
        return out
    out = np.zeros((C, 4), dtype=np.int64)
    for k in range(C):
        t, p = targets[:, k] > 0, preds[:, k] > 0
        out[k] = [np.sum(t & p), np.sum(~t & p), np.sum(t & ~p), np.sum(~t & ~p)]
    return out


@dataclass
class Metrics:
    metric_name: str
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    test_metric: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    confusion: np.ndarray | None = None  # the best epoch's; None without epochs
    best_epoch: int | None = None

    @property
    def best_test_metric(self) -> float | None:
        if self.best_epoch is None:
            return None
        return self.test_metric[self.epochs.index(self.best_epoch)]


def metric_name(mode: str) -> str:
    """The evaluation metric reported for a label mode."""
    return "accuracy" if mode == "single" else "weighted_accuracy"


_METRIC_NOTES = {
    "accuracy": "fraction of exactly correct predictions",
    "weighted_accuracy": "per-class binary accuracy averaged over classes and examples",
}


def write_metrics(path, cfg: RunConfig, metrics: Metrics) -> None:
    lines = ["# capsaudio metrics v1"]
    lines += [f"# {line}" for line in config_to_text(cfg).splitlines()]
    lines += ["# selection: best_test",
              f"# metric: {metrics.metric_name} "
              f"({_METRIC_NOTES[metrics.metric_name]})",
              f"# best_epoch: {metrics.best_epoch}",
              "# columns: epoch,train_loss,test_metric,seconds"]
    lines += [f"{e},{l!r},{m!r},{s:.3f}" for e, l, m, s in zip(
        metrics.epochs, metrics.train_loss, metrics.test_metric, metrics.seconds)]
    write_text(path, "\n".join(lines) + "\n")


def read_metrics_rows(path) -> list[tuple[int, float, float, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            e, l, m, s = line.strip().split(",")
            rows.append((int(e), float(l), float(m), float(s)))
    return rows


# ---------------------------------------------------------------------------
# trained model container

@dataclass
class TrainedModel:
    model: object
    cfg: RunConfig
    scaler: ScalerParams | None = None

    def _batched(self, X: np.ndarray, output: str) -> np.ndarray:
        """One ForwardOutput field over X in chunks of EVAL_BATCH rows."""
        chunks = [getattr(self.model.forward(X[i:i + EVAL_BATCH], training=False,
                                             rng=None), output).data
                  for i in range(0, X.shape[0], EVAL_BATCH)]
        return np.concatenate(chunks, axis=0)

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Inference class scores [N, C], batched."""
        return self._batched(X, "scores")

    def caps_vectors(self, X: np.ndarray) -> np.ndarray:
        """Capsule activity vectors [N, C, caps_dim] (caps model only)."""
        if self.cfg.model != "caps":
            raise ConfigError(f"capsule vectors need model=caps, "
                              f"got model={self.cfg.model}")
        return self._batched(X, "caps")

    def inputs(self, mats) -> np.ndarray:
        """Model inputs from feature arrays, scaled by the model's own scaler."""
        if self.scaler is None:
            raise ConfigError("checkpoint carries no feature scaler")
        return model_inputs(mats, self.scaler, self.cfg.T_fix)

    def save(self, path) -> None:
        save_checkpoint(path, self.cfg, model_blocks(self.model, self.scaler))


def model_blocks(model, scaler: ScalerParams | None = None) -> dict[str, np.ndarray]:
    """Checkpoint blocks naming the model's parameters, its state ('state.')
    and the scaler, if any. The arrays are the live ones, not copies."""
    out = {name: t.data for name, t in model.params().items()}
    for name, arr in model.state().items():
        out[f"state.{name}"] = arr
    if scaler is not None:
        out["scaler.min"] = scaler.minimum
        out["scaler.max"] = scaler.maximum
    return out


def load_blocks(model, blocks: dict[str, np.ndarray]) -> None:
    """Set the model's parameters and state from blocks named as by
    model_blocks; other blocks are ignored."""
    model.set({name: Tensor(blocks[name], requires_grad=True)
               for name in model.params()})
    model.set({name: blocks[f"state.{name}"].copy() for name in model.state()})


def load_trained(path) -> TrainedModel:
    """Rebuild a TrainedModel from a checkpoint; shapes come from the blocks.

    The model is built with rng=None (read-only placeholders, no random
    draws) and load_blocks then replaces every parameter and state array
    with the checkpoint's; a missing block raises KeyError, so no
    placeholder is returned.
    """
    cfg, blocks = load_checkpoint(path)
    n_dims = blocks["bn.gamma"].shape[0]
    n_classes = (blocks["caps.W"].shape[1] if cfg.model == "caps"
                 else blocks["head.b"].shape[0])
    model = build_model(cfg, n_dims, n_classes, None)
    load_blocks(model, blocks)
    scaler = None
    if "scaler.min" in blocks:
        scaler = ScalerParams(blocks["scaler.min"], blocks["scaler.max"])
    return TrainedModel(model, cfg, scaler)


# ---------------------------------------------------------------------------
# training

def evaluate(trained: TrainedModel, ds: ArrayDataset) -> tuple[float, np.ndarray]:
    scores = trained.scores(ds.X)
    preds = predict(scores, trained.cfg.mode, trained.cfg.threshold)
    return accuracy(preds, ds.Y, trained.cfg.mode), confusion_matrix(
        preds, ds.Y, trained.cfg.mode)


def train(cfg: RunConfig, train_set: ArrayDataset,
          test_set: ArrayDataset) -> tuple[TrainedModel, Metrics]:
    """Train per cfg and return the best-test-epoch model plus metrics."""
    validate(cfg)
    if len(train_set) == 0 or len(test_set) == 0:
        raise InsufficientData("empty train or test split")
    if train_set.X.shape[1] != cfg.T_fix:
        raise ShapeError(f"dataset frames {train_set.X.shape[1]} != T_fix {cfg.T_fix}")
    if cfg.mode == "single" and not np.all(train_set.Y.sum(axis=1) == 1):
        raise ConfigError("mode=single requires exactly one label per entry")

    n_dims = train_set.X.shape[2]
    n_classes = train_set.Y.shape[1]
    init_rng, shuffle_rng, dropout_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3))
    model = build_model(cfg, n_dims, n_classes, init_rng)
    opt = Adam(cfg.lr)
    trained = TrainedModel(model, cfg)
    metrics = Metrics(metric_name(cfg.mode))

    # Adam.step and BatchNorm replace arrays, never write into them.
    best_snap = model_blocks(model)
    best_metric = -1.0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_set))
        losses = []
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            try:
                with Graph() as g:
                    out = model.forward(train_set.X[idx], training=True,
                                        rng=dropout_rng, targets=train_set.Y[idx])
                    loss = out.loss
                g.backward(loss)
            except NumericsFault as e:
                raise DivergenceFault(f"diverged at epoch {epoch} step {step}: {e}",
                                      epoch=epoch, step=step) from e
            opt.step(model.params())
            losses.append(float(loss.data))

        test_metric, confusion = evaluate(trained, test_set)
        metrics.epochs.append(epoch)
        metrics.train_loss.append(float(np.mean(losses)))
        metrics.test_metric.append(test_metric)
        metrics.seconds.append(time.perf_counter() - t0)
        if test_metric > best_metric:
            best_metric = test_metric
            best_snap = model_blocks(model)
            metrics.best_epoch = epoch
            metrics.confusion = confusion

    load_blocks(model, best_snap)
    return trained, metrics


def run_training(cfg: RunConfig, data_dir: str, out_dir: str | None = None,
                 cache_dir: str | None = None) -> tuple[TrainedModel, Metrics]:
    """Feature pipeline + train; optionally write the run directory."""
    train_ds, test_ds, scaler = prepare_data(data_dir, cfg.T_fix, cache_dir)
    trained, metrics = train(cfg, train_ds, test_ds)
    trained.scaler = scaler
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_config(os.path.join(out_dir, "config.cfg"), cfg)
        write_metrics(os.path.join(out_dir, "metrics.csv"), cfg, metrics)
        if metrics.confusion is not None:
            with atomic_write(os.path.join(out_dir, "confusion.csv")) as fh:
                np.savetxt(fh, metrics.confusion, fmt="%d", delimiter=",")
        trained.save(os.path.join(out_dir, "checkpoint.cpsn"))
    return trained, metrics


# ---------------------------------------------------------------------------
# experiment grid

GRID_AXES = {
    "routing": ("routing_iters", (1, 3, 5)),
    "caps_dim": ("caps_dim", (2, 4, 8, 16, 32)),
    "regularization": ("use_decoder", (False, True)),
}


def grid_configs(base: RunConfig, axis: str,
                 seeds: list[int]) -> list[tuple[object, int, RunConfig]]:
    if axis not in GRID_AXES:
        raise ConfigError(f"unknown grid axis {axis!r}; "
                          f"expected one of {sorted(GRID_AXES)}")
    fname, values = GRID_AXES[axis]
    return [(value, seed, replace(base, **{fname: value, "seed": seed}))
            for value in values for seed in seeds]


# The datasets of a grid pool worker; set only in worker processes.
_worker_data: tuple[ArrayDataset, ArrayDataset] | None = None


def _init_grid_worker(train_set: ArrayDataset, test_set: ArrayDataset) -> None:
    """Pool initializer: one BLAS thread, and the datasets every run uses."""
    global _worker_data
    blas.set_threads(1)
    _worker_data = (train_set, test_set)


def _grid_worker_run(cfg: RunConfig) -> float | None:
    return train(cfg, *_worker_data)[1].best_test_metric


def run_grid(base: RunConfig, axis: str, seeds: list[int], train_set: ArrayDataset,
             test_set: ArrayDataset, jobs: int = 1) -> list[dict]:
    """Train every config of the sweep on the same datasets and return one
    row per run with its best test metric.

    Every run trains at one BLAS thread: two runs on two cores beat one run
    on two threads. jobs > 1 trains that many runs at a time in worker
    processes, each handed the datasets once.
    """
    combos = grid_configs(base, axis, seeds)
    cfgs = [cfg for _, _, cfg in combos]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_grid_worker,
                                 initargs=(train_set, test_set)) as pool:
            results = list(pool.map(_grid_worker_run, cfgs))
    else:
        with blas.one_thread():
            results = [train(cfg, train_set, test_set)[1].best_test_metric for cfg in cfgs]
    return [{"axis": axis, "value": value, "seed": seed, "metric": metric}
            for (value, seed, _), metric in zip(combos, results)]


def write_grid_table(path, axis: str, rows: list[dict], metric_name: str) -> None:
    lines = [f"# capsaudio grid axis={axis} metric={metric_name}",
             "axis,value,seed,best_test_metric"]
    lines += [f"{r['axis']},{r['value']},{r['seed']},{r['metric']!r}" for r in rows]
    write_text(path, "\n".join(lines) + "\n")
