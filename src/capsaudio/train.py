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
from .config import RunConfig, config_to_text, save_config
from .errors import (ConfigError, DivergenceFault, FormatError, InsufficientData,
                     NumericsFault, ShapeError)
from .features import ScalerParams, apply_scaler, fit_scaler
from .manifest import load_manifest, materialize, single_label, targets_for
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


def model_inputs(mats, scaler: ScalerParams, t_fix: int) -> np.ndarray:
    """Scaled [N, t_fix, dims] model inputs from [T, dims] feature arrays,
    each truncated or zero-padded to t_fix frames."""
    out = np.zeros((len(mats), t_fix, scaler.minimum.shape[0]))
    for row, m in zip(out, mats):
        row[:len(m)] = apply_scaler(m[:t_fix], scaler)
    return out


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

def confusion_matrix(preds: np.ndarray, targets: np.ndarray, mode: str) -> np.ndarray:
    """single: [C, C] counts, rows = true class. multi: per-class binary
    counts [C, 4] ordered tp, fp, fn, tn. Every metric is read from these."""
    if preds.shape != targets.shape:
        raise ShapeError(f"preds {preds.shape} vs targets {targets.shape}")
    if mode == "single":
        C = targets.shape[1]
        out = np.zeros((C, C), dtype=np.int64)
        np.add.at(out, (targets.argmax(axis=1), preds.argmax(axis=1)), 1)
        return out
    t, p = targets > 0, preds > 0
    return np.stack([np.sum(t & p, axis=0), np.sum(~t & p, axis=0),
                     np.sum(t & ~p, axis=0), np.sum(~t & ~p, axis=0)], axis=1)


# Per label mode: the metric's name and what it measures.
_METRICS = {
    "single": ("accuracy", "fraction of exactly correct predictions"),
    "multi": ("weighted_accuracy",
              "per-class binary accuracy averaged over classes and examples"),
}


def metric_name(mode: str) -> str:
    """The evaluation metric reported for a label mode."""
    return _METRICS[mode][0]


def metric_of(counts: np.ndarray, mode: str) -> float:
    """The mode's metric from confusion_matrix counts: single, trace / total;
    multi, (tp + tn) / total."""
    hits = np.trace(counts) if mode == "single" else np.sum(counts[:, [0, 3]])
    return float(hits / np.sum(counts))


@dataclass
class Metrics:
    """One run's results; entry i of each list is epoch i + 1's."""

    train_loss: list[float] = field(default_factory=list)
    test_metric: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    confusion: np.ndarray | None = None  # the best epoch's; None without epochs

    @property
    def best_epoch(self) -> int | None:
        """The selection rule: the first epoch with the highest test metric."""
        return 1 + int(np.argmax(self.test_metric)) if self.test_metric else None

    @property
    def best_test_metric(self) -> float | None:
        return max(self.test_metric) if self.test_metric else None


def write_metrics(path, cfg: RunConfig, metrics: Metrics) -> None:
    name, note = _METRICS[cfg.mode]
    lines = ["# capsaudio metrics v1"]
    lines += [f"# {line}" for line in config_to_text(cfg).splitlines()]
    lines += ["# selection: best_test",
              f"# metric: {name} ({note})",
              f"# best_epoch: {metrics.best_epoch}",
              "# columns: epoch,train_loss,test_metric,seconds"]
    lines += [f"{e},{l!r},{m!r},{s:.3f}" for e, (l, m, s) in enumerate(zip(
        metrics.train_loss, metrics.test_metric, metrics.seconds), start=1)]
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
    scaler: ScalerParams | None = None

    @property
    def cfg(self) -> RunConfig:
        return self.model.cfg

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
        """Write the blocks inference reads, the blocks load_trained checks:
        model_blocks without the training-only 'decoder.' blocks."""
        save_checkpoint(path, self.cfg, {
            name: arr for name, arr in model_blocks(self.model, self.scaler).items()
            if not name.startswith("decoder.")})


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
    draws, no decoder) and load_blocks then replaces every parameter and
    state array with the checkpoint's; a missing or mis-shaped block raises
    FormatError naming path and block first, so no placeholder is returned.
    Other blocks, such as the 'decoder.' blocks older checkpoints hold, are
    ignored. The scaler blocks, 'scaler.min' and 'scaler.max' of shape
    [n_dims], come both or neither.
    """
    cfg, blocks = load_checkpoint(path)
    sizes = (("bn.gamma", 0), ("caps.W", 1) if cfg.model == "caps" else ("head.b", 0))
    for name, axis in sizes:
        if name not in blocks or blocks[name].ndim <= axis:
            raise FormatError(f"{path}: block {name!r} missing or of rank below {axis + 1}")
    n_dims, n_classes = (blocks[name].shape[axis] for name, axis in sizes)
    model = build_model(cfg, n_dims, n_classes, None)
    has_scaler = "scaler.min" in blocks or "scaler.max" in blocks
    zero = np.zeros(n_dims)  # a scaler block's shape; either block asks for both
    want_scaler = ScalerParams(zero, zero) if has_scaler else None
    for name, want in model_blocks(model, want_scaler).items():
        if name not in blocks or blocks[name].shape != want.shape:
            got = f"has shape {blocks[name].shape}" if name in blocks else "is missing"
            raise FormatError(f"{path}: block {name!r} {got}, the model needs {want.shape}")
    load_blocks(model, blocks)
    if has_scaler:
        return TrainedModel(model, ScalerParams(blocks["scaler.min"], blocks["scaler.max"]))
    return TrainedModel(model)


# ---------------------------------------------------------------------------
# training

def check_labels(mode: str, Y: np.ndarray) -> None:
    """mode=single scores one label per entry; targets Y with a row of any
    other count raise ConfigError."""
    if mode == "single" and not single_label(Y):
        raise ConfigError("mode=single requires exactly one label per entry")


def evaluate(trained: TrainedModel, ds: ArrayDataset) -> tuple[float, np.ndarray]:
    scores = trained.scores(ds.X)
    preds = predict(scores, trained.cfg.mode, trained.cfg.threshold)
    counts = confusion_matrix(preds, ds.Y, trained.cfg.mode)
    return metric_of(counts, trained.cfg.mode), counts


def train(cfg: RunConfig, train_set: ArrayDataset,
          test_set: ArrayDataset) -> tuple[TrainedModel, Metrics]:
    """Train per cfg and return the best-test-epoch model plus metrics."""
    if len(train_set) == 0 or len(test_set) == 0:
        raise InsufficientData("empty train or test split")
    if train_set.X.shape[1] != cfg.T_fix:
        raise ShapeError(f"dataset frames {train_set.X.shape[1]} != T_fix {cfg.T_fix}")
    for ds in (train_set, test_set):
        check_labels(cfg.mode, ds.Y)

    n_dims = train_set.X.shape[2]
    n_classes = train_set.Y.shape[1]
    init_rng, shuffle_rng, dropout_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3))
    model = build_model(cfg, n_dims, n_classes, init_rng)
    opt = Adam(cfg.lr)
    trained = TrainedModel(model)
    metrics = Metrics()

    # Adam.step and BatchNorm replace arrays, never write into them.
    best_snap = model_blocks(model)
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
        metrics.train_loss.append(float(np.mean(losses)))
        metrics.test_metric.append(test_metric)
        metrics.seconds.append(time.perf_counter() - t0)
        if metrics.best_epoch == epoch:
            best_snap = model_blocks(model)
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
