import numpy as np
import pytest

from capsaudio import train as train_module
from capsaudio.autodiff import Graph
from capsaudio.config import RunConfig
from capsaudio.errors import ConfigError, DivergenceFault, InsufficientData, ShapeError
from capsaudio.features import ScalerParams
from capsaudio.models import build_model
from capsaudio.optim import Adam
from capsaudio.train import (EVAL_BATCH, ArrayDataset, Metrics, confusion_matrix,
                             evaluate, metric_name, metric_of, model_blocks,
                             model_inputs, read_metrics_rows, train, write_metrics)


def separable_dataset(n_per_class=10, t_fix=6, n_dims=4, jitter=0.0, seed=0):
    """Two classes with class-distinct constant feature matrices."""
    rng = np.random.default_rng(seed)
    X, Y = [], []
    for cls, level in ((0, 0.2), (1, 0.8)):
        for _ in range(n_per_class):
            x = np.full((t_fix, n_dims), level)
            if jitter:
                x = x + rng.normal(scale=jitter, size=x.shape)
            X.append(x)
            y = np.zeros(2)
            y[cls] = 1.0
            Y.append(y)
    return ArrayDataset(np.stack(X), np.stack(Y))


def tiny_cfg(**kw):
    base = dict(model="caps", caps_dim=2, routing_iters=1, use_decoder=False,
                hidden_size=4, dropout=0.0, lr=1e-2, batch_size=10, epochs=10,
                T_fix=6, seed=0, mode="single", threshold=0.5)
    base.update(kw)
    return RunConfig(**base)


# --- accuracy / confusion ----------------------------------------------------

def accuracy(preds, targets, mode):
    """The mode's metric of preds against targets, read from their counts."""
    return metric_of(confusion_matrix(preds, targets, mode), mode)


def test_accuracy_all_correct():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert accuracy(y, y, "single") == 1.0
    assert accuracy(y, y, "multi") == 1.0


def test_accuracy_single_quarter():
    preds = np.array([[1, 0, 0, 0]] * 4, dtype=float)
    targets = np.eye(4)
    assert accuracy(preds, targets, "single") == 0.25


def test_accuracy_multi_two_thirds():
    # true {A}, pred {A,B}, classes {A,B,C}
    preds = np.array([[1.0, 1.0, 0.0]])
    targets = np.array([[1.0, 0.0, 0.0]])
    assert accuracy(preds, targets, "multi") == pytest.approx(2.0 / 3.0)


def test_accuracy_shape_mismatch():
    with pytest.raises(ShapeError):
        confusion_matrix(np.zeros((2, 3)), np.zeros((3, 3)), "single")


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_metric_of_counts_matches_elementwise_reference(mode):
    # The reference compares rows (single) or elements (multi) directly.
    rng = np.random.default_rng(7)
    for n, c in [(1, 2), (7, 3), (64, 10), (333, 5)]:
        if mode == "single":
            preds, targets = (np.eye(c)[rng.integers(c, size=n)] for _ in range(2))
            want = float(np.mean(np.all(preds == targets, axis=1)))
        else:
            preds, targets = (rng.integers(2, size=(n, c)).astype(float) for _ in range(2))
            want = float(np.mean(preds == targets))
        counts = confusion_matrix(preds, targets, mode)
        assert counts.dtype == np.int64 and counts.sum() == (n if mode == "single" else n * c)
        assert metric_of(counts, mode) == want  # bit for bit


def test_confusion_single_rows_sum_to_class_counts():
    targets = np.array([[1, 0], [1, 0], [0, 1]], dtype=float)
    preds = np.array([[1, 0], [0, 1], [0, 1]], dtype=float)
    cm = confusion_matrix(preds, targets, "single")
    np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])
    np.testing.assert_array_equal(cm.sum(axis=1), targets.sum(axis=0))


def test_confusion_multi_counts():
    targets = np.array([[1, 0], [1, 1], [0, 0]], dtype=float)
    preds = np.array([[1, 1], [0, 1], [0, 0]], dtype=float)
    cm = confusion_matrix(preds, targets, "multi")
    np.testing.assert_array_equal(cm[0], [1, 0, 1, 1])  # tp fp fn tn
    np.testing.assert_array_equal(cm[1], [1, 1, 0, 1])
    assert np.all(cm.sum(axis=1) == 3)


# --- training ----------------------------------------------------------------

def test_model_inputs_pad_and_truncate():
    scaler = ScalerParams(np.zeros(2), np.ones(2))  # the identity scaling
    m = np.full((3, 2), 0.5)
    padded, truncated = model_inputs([m, m], scaler, 5), model_inputs([m], scaler, 2)
    assert padded.shape == (2, 5, 2)
    np.testing.assert_array_equal(padded[:, :3], 0.5)
    np.testing.assert_array_equal(padded[:, 3:], 0.0)
    np.testing.assert_array_equal(truncated[0], m[:2])


def test_epochs_zero_returns_initialization():
    ds = separable_dataset()
    trained, metrics = train(tiny_cfg(epochs=0), ds, ds)
    assert metrics.test_metric == [] and metrics.train_loss == []
    assert metrics.best_epoch is None
    metric, _ = evaluate(trained, ds)  # runs, on untrained weights
    assert 0.0 <= metric <= 1.0
    # the returned parameters are exactly the (deterministic) initialization
    again, _ = train(tiny_cfg(epochs=0), ds, ds)
    stepped, _ = train(tiny_cfg(epochs=1), ds, ds)
    for name, t in trained.model.params().items():
        assert np.array_equal(again.model.params()[name].data, t.data)
        assert not np.array_equal(stepped.model.params()[name].data, t.data)


@pytest.mark.parametrize("model", ["caps", "lstm", "att"])
def test_separable_set_reaches_full_train_accuracy(model):
    ds = separable_dataset(jitter=0.01)
    cfg = tiny_cfg(model=model, epochs=50)
    trained, metrics = train(cfg, ds, ds)
    train_acc, _ = evaluate(trained, ds)
    assert train_acc == 1.0
    assert len(metrics.test_metric) == 50


def test_first_step_descent_property():
    ds = separable_dataset(jitter=0.01)
    cfg = tiny_cfg(lr=1e-3)
    model = build_model(cfg, n_dims=4, n_classes=2, rng=np.random.default_rng(0))
    opt = Adam(lr=cfg.lr)

    def batch_loss(record):
        if record:
            with Graph() as g:
                out = model.forward(ds.X, training=True, rng=None, targets=ds.Y)
            return g, out.loss
        out = model.forward(ds.X, training=True, rng=None, targets=ds.Y)
        return None, out.loss

    g, loss0 = batch_loss(record=True)
    g.backward(loss0)
    opt.step(model.params())
    _, loss1 = batch_loss(record=False)
    assert float(loss1.data) < float(loss0.data)


def test_determinism_same_cfg_same_metrics(tmp_path):
    ds = separable_dataset(jitter=0.05)
    cfg = tiny_cfg(epochs=5, dropout=0.3)
    t1, m1 = train(cfg, ds, ds)
    t2, m2 = train(cfg, ds, ds)
    assert m1.train_loss == m2.train_loss  # bit-identical floats
    assert m1.test_metric == m2.test_metric
    t1.save(tmp_path / "a.cpsn")
    t2.save(tmp_path / "b.cpsn")
    assert (tmp_path / "a.cpsn").read_bytes() == (tmp_path / "b.cpsn").read_bytes()


def test_seed_changes_results():
    ds = separable_dataset(jitter=0.05)
    _, m1 = train(tiny_cfg(epochs=2), ds, ds)
    _, m2 = train(tiny_cfg(epochs=2, seed=1), ds, ds)
    assert m1.train_loss != m2.train_loss


def test_empty_split_rejected():
    ds = separable_dataset()
    empty = ArrayDataset(np.zeros((0, 6, 4)), np.zeros((0, 2)))
    with pytest.raises(InsufficientData):
        train(tiny_cfg(), empty, ds)
    with pytest.raises(InsufficientData):
        train(tiny_cfg(), ds, empty)


def test_single_mode_requires_one_hot():
    ds = separable_dataset()
    ds.Y[0] = [1.0, 1.0]
    with pytest.raises(ConfigError):
        train(tiny_cfg(), ds, ds)


def test_t_fix_mismatch():
    ds = separable_dataset(t_fix=5)
    with pytest.raises(ShapeError):
        train(tiny_cfg(T_fix=6), ds, ds)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_fault_reports_location():
    ds = separable_dataset(jitter=0.01)
    ds.X = ds.X * 1e200  # batch-norm variance overflows to inf
    with pytest.raises(DivergenceFault) as err:
        train(tiny_cfg(epochs=3), ds, ds)
    assert err.value.epoch == 1 and err.value.step == 0
    assert "'batch_norm'" in str(err.value)


def test_decoder_path_trains():
    ds = separable_dataset(jitter=0.01)
    cfg = tiny_cfg(model="caps", use_decoder=True, recon_weight=0.2, epochs=3)
    trained, metrics = train(cfg, ds, ds)
    assert len(metrics.train_loss) == 3
    assert trained.model.decoder is not None


def test_multi_mode_trains():
    ds = separable_dataset(jitter=0.01)
    # make one example carry both labels
    ds.Y[0] = [1.0, 1.0]
    cfg = tiny_cfg(mode="multi", lambda_=1.0, epochs=3)
    _, metrics = train(cfg, ds, ds)
    assert metric_name("multi") == "weighted_accuracy"
    assert len(metrics.test_metric) == 3


def test_best_epoch_selection():
    ds = separable_dataset(jitter=0.05)
    _, metrics = train(tiny_cfg(epochs=8), ds, ds)
    best = metrics.best_test_metric
    assert best == max(metrics.test_metric)
    # earliest epoch achieving the max is selected
    assert metrics.best_epoch == 1 + metrics.test_metric.index(best)


def test_returned_model_is_the_best_epoch_not_the_last():
    # At this step size the test metric peaks early and then falls, so the
    # returned weights and batch-norm stats must be the best epoch's.
    train_set = separable_dataset(jitter=0.5, seed=0)
    test_set = separable_dataset(jitter=0.5, seed=10)
    trained, metrics = train(tiny_cfg(lr=0.3, epochs=6), train_set, test_set)
    assert metrics.test_metric[-1] < metrics.best_test_metric
    assert evaluate(trained, test_set)[0] == metrics.best_test_metric


def test_confusion_is_the_returned_models_with_one_evaluate_per_epoch(monkeypatch):
    train_set = separable_dataset(jitter=0.5, seed=0)
    test_set = separable_dataset(jitter=0.5, seed=10)
    calls = []

    def counted(trained, ds):
        calls.append(ds)
        return evaluate(trained, ds)

    monkeypatch.setattr(train_module, "evaluate", counted)
    trained, metrics = train(tiny_cfg(lr=0.3, epochs=6), train_set, test_set)
    assert len(calls) == 6
    assert metrics.best_epoch < 6  # the returned model is not the last epoch's
    np.testing.assert_array_equal(metrics.confusion, evaluate(trained, test_set)[1])


def test_ties_select_the_first_best_epoch(monkeypatch):
    # Scripted metrics with the real counts: epochs 2 and 3 tie for best.
    ds = separable_dataset(jitter=0.05)
    scripted = iter([0.5, 0.75, 0.75, 0.25])
    seen = []

    def scripted_evaluate(trained, test_set):
        _, counts = evaluate(trained, test_set)
        seen.append((counts, {name: arr.copy()
                              for name, arr in model_blocks(trained.model).items()}))
        return next(scripted), counts

    monkeypatch.setattr(train_module, "evaluate", scripted_evaluate)
    trained, metrics = train(tiny_cfg(epochs=4), ds, ds)
    assert metrics.best_epoch == 2 and metrics.best_test_metric == 0.75
    counts, blocks = seen[1]
    assert metrics.confusion is counts
    returned = model_blocks(trained.model)
    assert returned.keys() == blocks.keys()
    for name, arr in blocks.items():
        np.testing.assert_array_equal(returned[name], arr)
    assert not np.array_equal(seen[2][1]["caps.W"], blocks["caps.W"])


# --- batched inference --------------------------------------------------------

def test_batched_inference_across_chunk_boundary():
    ds = separable_dataset()
    trained, _ = train(tiny_cfg(epochs=2), ds, ds)
    X = np.random.default_rng(3).uniform(size=(EVAL_BATCH + 6, 6, 4))
    scores = trained.scores(X)
    caps = trained.caps_vectors(X)
    assert scores.shape == (EVAL_BATCH + 6, 2)
    np.testing.assert_allclose(scores, np.linalg.norm(caps, axis=-1), atol=1e-12)
    tail = trained.model.forward(X[-6:], training=False, rng=None)
    np.testing.assert_array_equal(scores[-6:], tail.scores.data)
    np.testing.assert_array_equal(caps[-6:], tail.caps.data)


@pytest.mark.parametrize("model", ["lstm", "att"])
def test_caps_vectors_on_baseline_names_model(model):
    ds = separable_dataset()
    trained, _ = train(tiny_cfg(model=model, epochs=1), ds, ds)
    with pytest.raises(ConfigError, match=f"model={model}"):
        trained.caps_vectors(ds.X)


# --- metrics file -------------------------------------------------------------

def test_metrics_file_format(tmp_path):
    cfg = tiny_cfg()
    metrics = Metrics(train_loss=[0.5, 0.25], test_metric=[0.75, 1.0],
                      seconds=[0.11, 0.12])
    path = tmp_path / "metrics.csv"
    write_metrics(path, cfg, metrics)
    text = path.read_text()
    assert "# model=caps" in text
    assert "# selection: best_test" in text
    assert "# metric: accuracy" in text
    assert "# best_epoch: 2" in text
    rows = read_metrics_rows(path)
    assert rows[0][:3] == (1, 0.5, 0.75)
    assert rows[1][:3] == (2, 0.25, 1.0)


def test_failed_metrics_write_keeps_old_file(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "metrics.csv"
    write_metrics(path, cfg, Metrics(train_loss=[0.5], test_metric=[0.75], seconds=[0.1]))
    before = path.read_bytes()
    bad = Metrics(train_loss=[0.5, 0.25], test_metric=[0.75, 1.0], seconds=[0.1, "n/a"])
    with pytest.raises(ValueError):  # the second row's seconds cannot format
        write_metrics(path, cfg, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
