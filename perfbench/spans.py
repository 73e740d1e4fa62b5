"""In-memory span tracer for the benchmark's traced runs.

Every span records its name, start, end, parent span and step id. Spans are
kept in flat lists while the run goes and written out once, when it ends.
A span's self time is its duration minus the durations of its child spans.

The tracer wraps capsaudio from outside: it replaces module attributes that
the program looks up at call time (``kernels.lstm_forward``,
``autodiff.apply_op``, ``Graph.backward``, ``Adam.step``, layer
``__call__`` methods) and names bound by ``from ... import`` where they are
used (``models.margin_loss``, ``manifest.mfcc``, ...). No file under
``src/`` is changed; ``install`` puts every original back on exit.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

from capsaudio import (audio, autodiff, capsnet, checkpoint, cli, kernels, layers,
                       manifest, models, optim, train)

# Layers whose backward-node self time is reported one by one.
BACKWARD_LAYERS = ("bn", "lstm1", "lstm2", "caps", "loss", "decoder")

# Tape ops of the capsule model, each counted per step; any other op name
# (a new fused op, say) is counted under "other".
TAPE_OPS = ("add", "sub", "mul", "div", "square", "abs", "sigmoid", "relu",
            "softmax", "matmul", "sum", "mean", "l2norm", "concat", "reshape",
            "transpose", "flip", "lstm", "other")

# Adam reads p, g, m, v and writes m, v, p: seven float64 arrays per parameter.
ADAM_BYTES_PER_PARAM = 7 * 8


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.step: list[int | None] = []
        self.extra: dict[int, object] = {}   # span index -> op name / flops / size
        self.layer_of: dict[int, str] = {}    # id(layer instance) -> model attribute
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._step: int | None = None
        self._n_steps = 0
        self.cache_lookups = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self._step)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    def begin_step(self) -> None:
        self._n_steps += 1
        self._step = self._n_steps

    def end_step(self) -> None:
        self._step = None

    @contextmanager
    def op_step(self):
        """Mark one closed-loop op of the benchmark (an inference call) as a step."""
        self.begin_step()
        try:
            yield
        finally:
            self.end_step()

    def current_layer(self) -> str:
        return self._layers[-1] if self._layers else "other"

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end (s), parent, step."""
        base = self.t0[0] if self.t0 else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps([name, round(self.t0[i] - base, 9),
                                     round(self.t1[i] - base, 9), self.parent[i],
                                     self.step[i]]) + "\n")


# ---------------------------------------------------------------------------
# wrappers


def _timed(tr: Tracer, fn, name: str, layer: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer is not None:
            tr._layers.append(layer)
        i = tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(i)
            if layer is not None:
                tr._layers.pop()
    return wrapper


def _lstm_forward_flops(x, Wx, Wh, b) -> int:
    T, B, I = x.shape
    H4 = Wx.shape[1]
    return 2 * T * B * I * H4 + 2 * (T - 1) * B * Wh.shape[0] * H4


def _lstm_backward_flops(dh_out, x, Wx, Wh, h, c, gates) -> int:
    T, B, I = x.shape
    H, H4 = Wh.shape
    # dx and dWx, dWh, and the per-timestep dh @ Wh.T.
    return 4 * T * B * H4 * I + 2 * (T - 1) * B * H * H4 + 2 * T * B * H4 * H


def _kernel(tr: Tracer, fn, name: str, flops):
    @functools.wraps(fn)
    def wrapper(*args):
        i = tr.begin(name)
        try:
            return fn(*args)
        finally:
            tr.end(i)
            tr.extra[i] = flops(*args)
    return wrapper


def _patches(tr: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapped entry point."""
    orig_apply_op = autodiff.apply_op

    def apply_op(name, inputs, out_data, backward_fn):
        layer = tr.current_layer()

        def timed_backward(g):
            j = tr.begin("autodiff.bwd." + layer)
            try:
                return backward_fn(g)
            finally:
                tr.end(j)

        i = tr.begin("autodiff.apply_op")
        try:
            out = orig_apply_op(name, inputs, out_data, timed_backward)
        finally:
            tr.end(i)
        if out.requires_grad:
            tr.extra[i] = name
        return out

    orig_forward = models.CapsModel.forward

    @functools.wraps(orig_forward)
    def forward(self, x, training, rng, *args, **kwargs):
        tr.layer_of = {id(self.bn): "bn", id(self.lstm1): "lstm1",
                       id(self.lstm2): "lstm2"}
        if training:
            tr.begin_step()
        i = tr.begin("models.forward")
        try:
            return orig_forward(self, x, training, rng, *args, **kwargs)
        finally:
            tr.end(i)

    bilstm_by_tag = {tag: _timed(tr, layers.BiLSTM.__call__, "layers." + tag, tag)
                     for tag in ("lstm1", "lstm2", "lstm")}

    def bilstm_call(self, x):
        return bilstm_by_tag[tr.layer_of.get(id(self), "lstm")](self, x)

    orig_adam = optim.Adam.step

    @functools.wraps(orig_adam)
    def adam_step(self, params):
        i = tr.begin("optim.adam")
        try:
            return orig_adam(self, params)
        finally:
            tr.end(i)
            tr.extra[i] = sum(p.data.size for p in params.values())
            tr.end_step()

    traced_materialize = _timed(tr, manifest.materialize, "manifest.materialize")

    def materialize(man, root, cfg=manifest.FeatureConfig(), cache_dir=None, jobs=1):
        if cache_dir is not None:
            tr.cache_lookups += len(man.entries)
        return traced_materialize(man, root, cfg, cache_dir, jobs)

    orig_scores = train.TrainedModel.scores

    @functools.wraps(orig_scores)
    def scores(self, X):
        i = tr.begin("train.scores")
        try:
            return orig_scores(self, X)
        finally:
            tr.end(i)
            tr.extra[i] = X.shape[0]

    squash = _timed(tr, capsnet.squash, "capsnet.squash")
    run_grid = _timed(tr, train.run_grid, "train.run_grid")
    return [
        (kernels, "lstm_forward",
         _kernel(tr, kernels.lstm_forward, "kernels.lstm_forward", _lstm_forward_flops)),
        (kernels, "lstm_backward",
         _kernel(tr, kernels.lstm_backward, "kernels.lstm_backward", _lstm_backward_flops)),
        (autodiff, "apply_op", apply_op),
        (autodiff.Graph, "backward",
         _timed(tr, autodiff.Graph.backward, "autodiff.backward")),
        (layers.BatchNorm, "__call__",
         _timed(tr, layers.BatchNorm.__call__, "layers.bn", "bn")),
        (layers.BiLSTM, "__call__", bilstm_call),
        (capsnet.CapsuleLayer, "__call__",
         _timed(tr, capsnet.CapsuleLayer.__call__, "capsnet.caps", "caps")),
        (capsnet, "squash", squash),
        (models, "squash", squash),
        (models, "margin_loss", _timed(tr, models.margin_loss, "capsnet.loss", "loss")),
        (models, "decode_reconstruct",
         _timed(tr, models.decode_reconstruct, "capsnet.decoder", "decoder")),
        (models.CapsModel, "forward", forward),
        (optim.Adam, "step", adam_step),
        (manifest, "load_wav", _timed(tr, audio.load_wav, "audio.load_wav")),
        (manifest, "mfcc", _timed(tr, manifest.mfcc, "features.mfcc")),
        (manifest, "write_cache", _timed(tr, manifest.write_cache, "features.write_cache")),
        (manifest, "read_cache", _timed(tr, manifest.read_cache, "features.read_cache")),
        (manifest, "materialize", materialize),
        (train, "materialize", materialize),
        (train, "prepare_data", _timed(tr, train.prepare_data, "train.prepare_data")),
        (train, "train", _timed(tr, train.train, "train.train")),
        (train, "run_training", _timed(tr, train.run_training, "train.run_training")),
        (train, "evaluate", _timed(tr, train.evaluate, "train.evaluate")),
        (train.TrainedModel, "scores", scores),
        (train, "load_checkpoint",
         _timed(tr, checkpoint.load_checkpoint, "checkpoint.load")),
        (train, "run_grid", run_grid),
        (cli, "run_grid", run_grid),
    ]


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the block, then restore it."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def install(tr: Tracer):
    """Wrap the program's entry points with spans for the duration of the block."""
    return patched(_patches(tr))


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tr: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics from the recorded spans: name -> (value, unit).

    Per-call metrics are medians over calls. ``*.fwd_ms`` sums a layer's spans
    within one model forward and takes the median over forwards that ran the
    layer. ``autodiff.backward.<layer>.ms`` sums the self time of backward
    functions of nodes recorded under that layer's span within one
    ``Graph.backward`` call. ``*_per_step`` metrics are medians over steps,
    a step being one training step (forward to ``Adam.step``) or one
    inference call the benchmark makes.
    """
    n = len(tr.name)
    dur = [tr.t1[i] - tr.t0[i] for i in range(n)]
    child = [0.0] * n
    fwd_anc = [-1] * n
    bwd_anc = [-1] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
        fwd_anc[i] = i if tr.name[i] == "models.forward" else (fwd_anc[p] if p >= 0 else -1)
        bwd_anc[i] = i if tr.name[i] == "autodiff.backward" else (bwd_anc[p] if p >= 0 else -1)

    calls: dict[str, list[float]] = {}
    per_fwd: dict[str, dict[int, float]] = {}
    per_bwd: dict[str, dict[int, float]] = {}
    steps: dict[int, dict[str, float]] = {}
    for i in range(n):
        name = tr.name[i]
        calls.setdefault(name, []).append(dur[i])
        if fwd_anc[i] >= 0 and name != "models.forward":
            acc = per_fwd.setdefault(name, {})
            acc[fwd_anc[i]] = acc.get(fwd_anc[i], 0.0) + dur[i]
        if name.startswith("autodiff.bwd.") and bwd_anc[i] >= 0:
            acc = per_bwd.setdefault(name[len("autodiff.bwd."):], {})
            acc[bwd_anc[i]] = acc.get(bwd_anc[i], 0.0) + dur[i] - child[i]
        s = tr.step[i]
        if s is None:
            continue
        row = steps.setdefault(s, {})
        if name == "autodiff.apply_op":
            row["apply_op_s"] = row.get("apply_op_s", 0.0) + dur[i]
            op = tr.extra.get(i)
            if op is not None:
                row["nodes"] = row.get("nodes", 0) + 1
                key = "op." + (op if op in TAPE_OPS else "other")
                row[key] = row.get(key, 0) + 1
        elif name.startswith("kernels.lstm_"):
            row["lstm_calls"] = row.get("lstm_calls", 0) + 1
            row["lstm_flops"] = row.get("lstm_flops", 0) + tr.extra[i]

    def ms_per_call(name):
        v = _median(calls.get(name, []))
        return None if v is None else 1e3 * v

    def ms_per_fwd(name):
        v = _median(list(per_fwd.get(name, {}).values()))
        return None if v is None else 1e3 * v

    def step_median(key, scale=1.0):
        if not steps:
            return None
        return scale * statistics.median(row.get(key, 0) for row in steps.values())

    adam_sizes = [v for i, v in tr.extra.items() if tr.name[i] == "optim.adam"]
    param_count = adam_sizes[-1] if adam_sizes else 0
    # TrainedModel.scores runs its rows in chunks of train.EVAL_BATCH.
    scores_per_batch = [dur[i] / -(-tr.extra[i] // train.EVAL_BATCH)
                        for i in range(n) if tr.name[i] == "train.scores"]
    reads = len(calls.get("features.read_cache", []))
    writes = len(calls.get("features.write_cache", []))

    out = {
        "kernels.lstm_forward.ms": (ms_per_call("kernels.lstm_forward"), "ms"),
        "kernels.lstm_backward.ms": (ms_per_call("kernels.lstm_backward"), "ms"),
        "kernels.lstm.calls_per_step": (step_median("lstm_calls"), "count"),
        "kernels.lstm.gflop_per_step": (step_median("lstm_flops", 1e-9), "GFLOP"),
        "layers.bn.fwd_ms": (ms_per_fwd("layers.bn"), "ms"),
        "layers.lstm1.fwd_ms": (ms_per_fwd("layers.lstm1"), "ms"),
        "layers.lstm2.fwd_ms": (ms_per_fwd("layers.lstm2"), "ms"),
        "capsnet.caps.fwd_ms": (ms_per_fwd("capsnet.caps"), "ms"),
        "capsnet.squash.fwd_ms": (ms_per_fwd("capsnet.squash"), "ms"),
        "capsnet.loss.fwd_ms": (ms_per_fwd("capsnet.loss"), "ms"),
        "capsnet.decoder.fwd_ms": (ms_per_fwd("capsnet.decoder"), "ms"),
        "autodiff.backward.ms": (ms_per_call("autodiff.backward"), "ms"),
    }
    for layer in BACKWARD_LAYERS + ("other",):
        v = _median(list(per_bwd.get(layer, {}).values()))
        out[f"autodiff.backward.{layer}.ms"] = (None if v is None else 1e3 * v, "ms")
    out.update({
        "autodiff.apply_op.ms_per_step": (step_median("apply_op_s", 1e3), "ms"),
        "autodiff.tape_nodes_per_step": (step_median("nodes"), "count"),
    })
    for op in TAPE_OPS:
        out[f"autodiff.tape_nodes.{op}"] = (step_median("op." + op), "count")
    out.update({
        "optim.adam.ms": (ms_per_call("optim.adam"), "ms"),
        "optim.adam.param_count": (param_count, "count"),
        "optim.adam.mbytes_per_step": (param_count * ADAM_BYTES_PER_PARAM / 1e6, "MB"),
        "models.forward.ms": (ms_per_call("models.forward"), "ms"),
        "audio.load_wav.ms_per_clip": (ms_per_call("audio.load_wav"), "ms"),
        "features.mfcc.ms_per_clip": (ms_per_call("features.mfcc"), "ms"),
        "features.write_cache.ms_per_clip": (ms_per_call("features.write_cache"), "ms"),
        "features.read_cache.ms_per_clip": (ms_per_call("features.read_cache"), "ms"),
        "manifest.cache_lookups": (tr.cache_lookups, "count"),
        "manifest.cache_hit_ratio": (
            (reads - writes) / tr.cache_lookups if tr.cache_lookups else None, "ratio"),
        "train.evaluate.ms": (ms_per_call("train.evaluate"), "ms"),
        "train.scores.ms_per_batch": (
            1e3 * _median(scores_per_batch) if scores_per_batch else None, "ms"),
        "checkpoint.load.ms": (ms_per_call("checkpoint.load"), "ms"),
    })
    return out

