from dataclasses import replace

import pytest

from capsaudio import blas, train
from capsaudio.config import RunConfig
from capsaudio.errors import ConfigError
from capsaudio.train import grid_configs, run_grid, write_grid_table
from test_train import separable_dataset, tiny_cfg


def test_routing_axis_three_rows():
    combos = grid_configs(RunConfig(), "routing", seeds=[0])
    assert [v for v, _, _ in combos] == [1, 3, 5]
    assert all(cfg.routing_iters == v for v, _, cfg in combos)


def test_caps_dim_axis_five_rows():
    combos = grid_configs(RunConfig(), "caps_dim", seeds=[0])
    assert [v for v, _, _ in combos] == [2, 4, 8, 16, 32]


def test_regularization_axis_two_rows():
    combos = grid_configs(RunConfig(), "regularization", seeds=[0])
    assert [v for v, _, _ in combos] == [False, True]
    assert [cfg.use_decoder for _, _, cfg in combos] == [False, True]


def test_seeds_multiply_rows():
    combos = grid_configs(RunConfig(), "routing", seeds=[0, 1, 2])
    assert len(combos) == 9
    assert [s for _, s, _ in combos][:3] == [0, 1, 2]


def test_unknown_axis():
    with pytest.raises(ConfigError):
        grid_configs(RunConfig(), "learning_rate", seeds=[0])


def test_base_config_not_mutated():
    base = RunConfig()
    grid_configs(base, "caps_dim", seeds=[5])
    assert base.caps_dim == 16 and base.seed == 0


def test_run_grid_serial():
    ds = separable_dataset(jitter=0.02)
    rows = run_grid(tiny_cfg(epochs=2), "regularization", [0], ds, ds)
    assert len(rows) == 2
    assert rows[0]["value"] is False and rows[1]["value"] is True
    assert all(0.0 <= r["metric"] <= 1.0 for r in rows)


@pytest.mark.slow
def test_run_grid_parallel_matches_serial():
    cfg = tiny_cfg(epochs=2)
    ds = separable_dataset(jitter=0.02)
    serial = run_grid(cfg, "regularization", [0, 1], ds, ds, jobs=1)
    parallel = run_grid(cfg, "regularization", [0, 1], ds, ds, jobs=2)
    assert serial == parallel


@pytest.mark.skipif(blas.threads() is None, reason="BLAS thread count unknown")
@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_runs_at_one_blas_thread(jobs, monkeypatch):
    # Each run reports the BLAS thread count it trained at, in place of a metric.
    default = blas.threads()
    real_train = train.train

    def report_threads(cfg, train_set, test_set):
        trained, metrics = real_train(replace(cfg, epochs=1), train_set, test_set)
        metrics.test_metric = [blas.threads()]
        return trained, metrics

    monkeypatch.setattr(train, "train", report_threads)
    ds = separable_dataset()
    rows = run_grid(tiny_cfg(), "regularization", [0], ds, ds, jobs=jobs)
    assert [r["metric"] for r in rows] == [1, 1]
    # a later run in this process trains at the default count again
    assert report_threads(tiny_cfg(), ds, ds)[1].best_test_metric == default


def test_grid_table_format(tmp_path):
    rows = [{"axis": "caps_dim", "value": 2, "seed": 0, "metric": 0.75}]
    path = tmp_path / "grid.csv"
    write_grid_table(path, "caps_dim", rows, "accuracy")
    lines = path.read_text().splitlines()
    assert lines[0] == "# capsaudio grid axis=caps_dim metric=accuracy"
    assert lines[1] == "axis,value,seed,best_test_metric"
    assert lines[2] == "caps_dim,2,0,0.75"
