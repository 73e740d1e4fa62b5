#!/usr/bin/env python3
"""capsaudio benchmark: training, feature/inference and grid workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train_r3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40        # every workload, untraced

Each workload makes its inputs with ``synthdata.make_digit_dataset`` from
``--seed``, measures for about ``--seconds`` seconds in a closed loop (each
call starts after the previous one returns), checks the program's outputs,
and prints one JSON object as its last line of output. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the program's entry points with
in-memory spans and reports per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import capsaudio
except ImportError as exc:
    sys.exit(f"perfbench: cannot import capsaudio from {ROOT / 'src'}: {exc}")
if Path(capsaudio.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"perfbench: capsaudio imported from {capsaudio.__file__}, "
             f"not from {ROOT / 'src'}")

from capsaudio import cli, kernels, manifest, models, optim, synthdata, train  # noqa: E402
from capsaudio.config import RunConfig, save_config  # noqa: E402
from capsaudio.features import FeatureConfig  # noqa: E402

import spans  # noqa: E402

tick = time.perf_counter

# End-to-end metrics, reported by every workload with --trace 0: name -> unit.
# What each one measures on each workload is in README.md.
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "throughput_per_s": "1/s",
}

# Per-layer metrics that the harness times itself rather than reads from
# spans: name -> unit. The materialize passes run in every workload.
HARNESS_LAYER = {
    "manifest.materialize.cold_ms_per_clip": "ms",
    "manifest.materialize.warm_ms_per_clip": "ms",
    "trace.overhead_pct": "%",
}

# Per-layer metrics of layers that some workloads never call. They are
# printed and written to the results file, but left out of the --trace 1
# JSON line, where every workload must report every metric.
WORKLOAD_SPECIFIC = ("capsnet.decoder.fwd_ms", "autodiff.backward.decoder.ms",
                     "checkpoint.load.ms")

SCORE_TOLERANCE = 1e-12
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Size:
    clips_per: int = 8         # 240 clips: train 160 = 5 batches of 32, test 80
    epochs: int = 3            # per train.train call in the training workloads
    ckpt_epochs: int = 2       # checkpoint training for featurize_infer
    grid_clips_per: int = 2    # grid dataset: train 40 (batches of 32 and 8), test 20
    grid_epochs: int = 1
    grid_seeds: str = "0,1"    # 6 runs, so 2 workers get equal shares
    min_repeats: int = 2       # rounds, at least, whatever --seconds says


FULL = Size()
TINY = Size(clips_per=3, epochs=1, ckpt_epochs=1, grid_clips_per=2, grid_seeds="0")


# ---------------------------------------------------------------------------
# run bookkeeping


class Op:
    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Run:
    """State of one benchmark invocation for one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: Size):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        OUT_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, float] = {}
        self.shown: list[tuple[str, float, str, str]] = []
        self.extra: dict[str, tuple[float, str]] = {}
        self.digests: list[str] = []
        self.tracer = spans.Tracer() if trace else None
        self.first: dict[str, object] = {}  # the first result of each repeated op
        self._dirs = 0

    @contextmanager
    def op(self, what: str):
        """One call into the program; it fails if it raises or a check fails."""
        self.attempted += 1
        op = Op()
        try:
            yield op
        except Exception:
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
            raise
        if op.problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in op.problems)

    def traced(self, phase):
        """The phase, run with the span wrappers installed if this run traces."""
        if self.tracer is None:
            return phase

        def call():
            with spans.install(self.tracer):
                return phase()
        return call

    def op_step(self):
        return self.tracer.op_step() if self.tracer is not None else nullcontext()

    def fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        path = self.work / f"{tag}-{self._dirs}"
        path.mkdir()
        return str(path)

    def show(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.shown.append((name, value, unit, note))


def repeat(budget: float, minimum: int, body) -> None:
    """Call body() until budget seconds pass (at least `minimum` times),
    without starting a call the previous call's duration says would overrun."""
    start = tick()
    k = 0
    last = 0.0
    while k < minimum or tick() - start + last <= budget:
        t0 = tick()
        body()
        last = tick() - t0
        k += 1


def rounds(run: Run, *phases, untraced=None) -> None:
    """Call every phase once per round, in order, until --seconds pass.

    A traced run installs the spans around each phase, and ends each round
    with `untraced`, the workload's main op without spans, so that traced
    and untraced samples of it interleave.
    """
    calls = [run.traced(phase) for phase in phases]
    if run.trace:
        calls.append(untraced)
    repeat(run.seconds, run.size.min_repeats, lambda: [call() for call in calls])


def summarize(samples: list[float]) -> tuple[float, float, float, int]:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(samples)
    tail = next((p for p in TAILS if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return (statistics.median(samples), tail,
            float(np.percentile(samples, tail)), n)


def show_timing(run: Run, name: str, samples_s: list[float], note: str = "") -> float:
    p50, tail, tail_v, n = summarize(samples_s)
    run.show(f"{name}_ms_p50", 1e3 * p50, "ms", f"n={n}{note}")
    if tail > 50.0:
        run.show(f"{name}_ms_p{tail:g}", 1e3 * tail_v, "ms", f"n={n}")
    return 1e3 * p50


def model_digest(model) -> str:
    h = hashlib.sha256()
    for name, t in model.params().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    for name, arr in model.state().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def all_finite(model) -> bool:
    return all(np.all(np.isfinite(t.data)) for t in model.params().values())


def same_bits(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x.data.shape == y.data.shape and x.data.tobytes() == y.data.tobytes()
        for x, y in zip(a, b))


def make_data(run: Run, clips_per: int) -> str:
    """Synthesise the workload's WAVs and manifests (not timed)."""
    path = run.fresh_dir("data")
    synthdata.make_digit_dataset(path, clips_per=clips_per, seed=run.seed)
    return path


# ---------------------------------------------------------------------------
# phases
#
# A workload runs its phases round-robin until its time is used, so that
# each phase's samples spread over the whole run rather than one stretch of
# it: on a shared machine, speed drifts over seconds.


class FeaturePass:
    """manifest.materialize into an empty cache directory, then again from
    the now-warm directory; warm features must equal cold ones bit for bit."""

    def __init__(self, run: Run, data: str):
        self.run = run
        self.data = data
        self.mans = [manifest.load_manifest(os.path.join(data, f"{s}.csv"), s)
                     for s in ("train", "test")]
        self.n_clips = sum(len(m.entries) for m in self.mans)
        self.cold_s: list[float] = []
        self.warm_s: list[float] = []
        self.ref = None
        self.warm = None  # the last warm matrices, one list per manifest

    def _pass(self, cache: str) -> tuple[float, list]:
        t0 = tick()
        mats = [manifest.materialize(m, self.data, FeatureConfig(), cache_dir=cache)
                for m in self.mans]
        return tick() - t0, mats

    def __call__(self) -> None:
        cache = self.run.fresh_dir("cache")
        with self.run.op("materialize cold") as op:
            seconds, cold = self._pass(cache)
            self.cold_s.append(seconds)
            flat = [f for mats in cold for f in mats]
            self.ref = self.ref or flat
            op.check(same_bits(self.ref, flat), "cold features differ between passes")
        with self.run.op("materialize warm") as op:
            seconds, self.warm = self._pass(cache)
            self.warm_s.append(seconds)
            op.check(same_bits(flat, [f for mats in self.warm for f in mats]),
                     "warm-cache features differ from cold")
        shutil.rmtree(cache)

    def report(self) -> None:
        for name, samples in (("manifest.materialize.cold_ms_per_clip", self.cold_s),
                              ("manifest.materialize.warm_ms_per_clip", self.warm_s)):
            value = 1e3 * statistics.median(samples) / self.n_clips
            self.run.extra[name] = (value, "ms")
            self.run.show(name, value, "ms",
                          f"median of {len(samples)} passes x {self.n_clips} clips")


class TrainingSetup:
    """Program set-up before training: prepare_data and build_model."""

    def __init__(self, run: Run, data: str, cfg: RunConfig):
        self.run = run
        self.data = data
        self.cfg = cfg
        self.times: list[float] = []
        self.datasets = None

    def __call__(self) -> None:
        with self.run.op("setup") as op:
            t0 = tick()
            tr_ds, te_ds, _ = train.prepare_data(self.data, self.cfg.T_fix)
            models.build_model(self.cfg, tr_ds.X.shape[2], tr_ds.Y.shape[1],
                               np.random.default_rng(self.cfg.seed))
            self.times.append(tick() - t0)
            self.datasets = self.datasets or (tr_ds, te_ds)
            op.check(tr_ds.X.tobytes() == self.datasets[0].X.tobytes()
                     and te_ds.X.tobytes() == self.datasets[1].X.tobytes(),
                     "prepare_data gave different arrays on a repeat")

    def report(self) -> None:
        self.run.e2e["setup_s"] = statistics.median(self.times)
        self.run.show("setup_s", self.run.e2e["setup_s"], "s",
                      f"median of {len(self.times)}: prepare_data + build_model")


class StepTimer:
    """Times each training step, from a training-mode forward to Adam.step's return."""

    def __init__(self):
        self.samples: list[float] = []
        self._t0 = 0.0

    @contextmanager
    def install(self):
        forward = models.CapsModel.forward
        adam_step = optim.Adam.step

        def timed_forward(model, x, training, rng, *args, **kwargs):
            if training:
                self._t0 = tick()
            return forward(model, x, training, rng, *args, **kwargs)

        def timed_step(opt, params):
            adam_step(opt, params)
            self.samples.append(tick() - self._t0)

        with spans.patched([(models.CapsModel, "forward", timed_forward),
                            (optim.Adam, "step", timed_step)]):
            yield


class TrainCalls:
    """train.train on one config; every call in a run must give the same
    losses and final parameters, bit for bit."""

    def __init__(self, run: Run, cfg: RunConfig, datasets):
        self.run = run
        self.cfg = cfg
        self.datasets = datasets
        self.timer = StepTimer()
        self.clips_per_s: list[float] = []

    def __call__(self) -> None:
        run = self.run
        with run.op("train.train") as op:
            with self.timer.install():
                t0 = tick()
                trained, metrics = train.train(self.cfg, *self.datasets)
                wall = tick() - t0
            self.clips_per_s.append(self.cfg.epochs * len(self.datasets[0]) / wall)
            digest = model_digest(trained.model)
            op.check(np.all(np.isfinite(metrics.train_loss)), "non-finite training loss")
            op.check(all_finite(trained.model), "non-finite final parameters")
            result = (metrics.train_loss, digest)
            if "train" not in run.first:
                run.first["train"] = result
                run.digests.append(f"params sha256 {digest} losses "
                                   + " ".join(f"{x!r}" for x in metrics.train_loss))
            op.check(result == run.first["train"], "repeat differs from the first training run")

    def report(self) -> None:
        run = self.run
        run.e2e["latency_ms_p50"] = show_timing(run, "step", self.timer.samples,
                                                "; forward + backward + Adam.step")
        run.e2e["throughput_per_s"] = statistics.median(self.clips_per_s)
        run.show("train_clips_per_s", run.e2e["throughput_per_s"], "1/s",
                 f"median of {len(self.clips_per_s)} train.train calls x "
                 f"{self.cfg.epochs} epochs")


class LoadTrained:
    """Program set-up before inference: load_trained, checked against the
    model that wrote the checkpoint."""

    def __init__(self, run: Run, path: str, made: train.TrainedModel):
        self.run = run
        self.path = path
        self.made = made
        self.times: list[float] = []
        self.trained = None

    def __call__(self) -> None:
        with self.run.op("load_trained") as op:
            t0 = tick()
            trained = train.load_trained(self.path)
            self.times.append(tick() - t0)
            op.check(model_digest(trained.model) == model_digest(self.made.model),
                     "checkpoint parameters differ from the trained model")
            op.check(trained.scaler.minimum.tobytes() == self.made.scaler.minimum.tobytes()
                     and trained.scaler.maximum.tobytes() == self.made.scaler.maximum.tobytes(),
                     "checkpoint scaler differs from the trained one")
            self.trained = self.trained or trained

    def report(self) -> None:
        self.run.e2e["setup_s"] = statistics.median(self.times)
        self.run.show("setup_s", self.run.e2e["setup_s"], "s",
                      f"median of {len(self.times)}: load_trained")


class Inference:
    """TrainedModel.scores at batch 64 and at batch 1 on the same clips.
    Batch-64 scores repeat bit for bit; batch-1 scores match them to 1e-12
    with the same predicted class."""

    def __init__(self, run: Run, trained: train.TrainedModel, X: np.ndarray):
        self.run = run
        self.trained = trained
        self.X = X
        self.ref = np.full((len(X), trained.model.caps.n_classes), np.nan)
        self.b64_s: list[float] = []
        self.b1_s: list[float] = []

    def b64(self) -> None:
        """One pass over the clips in batches of 64."""
        n = train.EVAL_BATCH
        first = np.isnan(self.ref[0, 0])
        for lo in range(0, len(self.X), n):
            with self.run.op("scores b64") as op, self.run.op_step():
                t0 = tick()
                s = self.trained.scores(self.X[lo:lo + n])
                self.b64_s.append(tick() - t0)
                if first:
                    self.ref[lo:lo + n] = s
                op.check(s.tobytes() == self.ref[lo:lo + n].tobytes(),
                         "batch-64 scores changed on a repeat")

    def b1(self, times: list[float] | None = None) -> None:
        """One pass over the clips one at a time."""
        times = self.b1_s if times is None else times
        for i in range(len(self.X)):
            with self.run.op("scores b1") as op, self.run.op_step():
                t0 = tick()
                s = self.trained.scores(self.X[i:i + 1])
                times.append(tick() - t0)
                op.check(np.max(np.abs(s[0] - self.ref[i])) <= SCORE_TOLERANCE,
                         "batch-1 scores differ from batch-64 scores by more than 1e-12")
                op.check(np.argmax(s[0]) == np.argmax(self.ref[i]),
                         "batch-1 prediction differs from batch-64 prediction")

    def report(self) -> None:
        run = self.run
        run.e2e["latency_ms_p50"] = show_timing(run, "infer_b64", self.b64_s)
        run.e2e["throughput_per_s"] = train.EVAL_BATCH * 1e3 / run.e2e["latency_ms_p50"]
        run.show("infer_b64_clips_per_s", run.e2e["throughput_per_s"], "1/s",
                 "64 / infer_b64_ms_p50")
        show_timing(run, "infer_b1", self.b1_s)


class GridCalls:
    """`capsaudio grid --axis routing` at --jobs 1 and 2; every table, at
    either --jobs, must equal the first one row for row."""

    def __init__(self, run: Run, data: str, cfg_path: str):
        self.run = run
        self.data = data
        self.cfg_path = cfg_path
        self.calls: dict[int, list[tuple[float, float, int]]] = {1: [], 2: []}

    def __call__(self, jobs: int) -> None:
        out = self.run.fresh_dir(f"grid-j{jobs}")
        with self.run.op(f"grid --jobs {jobs}") as op:
            c0 = os.times()
            t0 = tick()
            with redirect_stdout(sys.stderr):
                rc = cli.dispatch(["grid", "--config", self.cfg_path, "--data", self.data,
                                   "--out", out, "--axis", "routing",
                                   "--seeds", self.run.size.grid_seeds,
                                   "--jobs", str(jobs), "--force"])
            wall = tick() - t0
            c1 = os.times()
            op.check(rc == 0, f"grid exited {rc}")
            with open(os.path.join(out, "grid_routing.csv"), encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            first = self.run.first.setdefault("grid", rows)
            op.check(rows == first, f"grid table at --jobs {jobs} differs from the first")
        cpu = sum(c1[i] - c0[i] for i in range(4))  # user, system, children user, system
        self.calls[jobs].append((wall, cpu / (wall * os.cpu_count()), len(rows) - 2))

    def run_s(self, jobs: int) -> list[float]:
        return [wall / runs for wall, _, runs in self.calls[jobs]]

    def report(self) -> None:
        run = self.run
        # Runs per second over all calls at that --jobs, so that a run's few
        # calls average rather than pick one of --jobs 2's two speeds.
        for jobs, calls in self.calls.items():
            rate = sum(r for _, _, r in calls) / sum(w for w, _, _ in calls)
            run.show(f"grid_runs_per_s_j{jobs}", rate, "1/s",
                     f"{len(calls)} calls x {calls[0][2]} runs")
            run.extra[f"train.run_grid.run_s_j{jobs}"] = (
                statistics.median(self.run_s(jobs)) * jobs, "s")
            run.extra[f"train.run_grid.cpu_busy_ratio_j{jobs}"] = (
                statistics.median(b for _, b, _ in calls), "ratio")
            if jobs == 2:
                run.e2e["throughput_per_s"] = rate
        run.e2e["latency_ms_p50"] = 1e3 * statistics.median(self.run_s(1))


# ---------------------------------------------------------------------------
# workloads


def workload_train(run: Run, routing_iters: int, use_decoder: bool) -> None:
    data = make_data(run, run.size.clips_per)
    cfg = RunConfig(routing_iters=routing_iters, use_decoder=use_decoder,
                    epochs=run.size.epochs, seed=run.seed)
    feats = FeaturePass(run, data)
    setup = TrainingSetup(run, data, cfg)
    run.traced(setup)()
    calls = TrainCalls(run, cfg, setup.datasets)
    untraced = TrainCalls(run, cfg, setup.datasets)
    rounds(run, feats, feats, setup, calls, untraced=untraced)
    for phase in (feats, setup, calls):
        phase.report()
    if run.trace:
        overhead(run, calls.timer.samples, untraced.timer.samples, "training step")


def workload_featurize_infer(run: Run) -> None:
    data = make_data(run, run.size.clips_per)
    cfg = RunConfig(epochs=run.size.ckpt_epochs, seed=run.seed)
    ckpt_dir = run.fresh_dir("ckpt")

    def make_checkpoint():
        with run.op("make checkpoint") as op:
            made, metrics = train.run_training(cfg, data, out_dir=ckpt_dir)
            op.check(np.all(np.isfinite(metrics.train_loss)), "non-finite training loss")
        return made

    made = run.traced(make_checkpoint)()
    feats = FeaturePass(run, data)
    run.traced(feats)()
    load = LoadTrained(run, os.path.join(ckpt_dir, "checkpoint.cpsn"), made)
    run.traced(load)()
    X = np.concatenate([
        train.make_dataset(m, f, m.class_names, load.trained.scaler, cfg.T_fix).X
        for m, f in zip(feats.mans, feats.warm)])
    infer = Inference(run, load.trained, X[:train.EVAL_BATCH * (len(X) // train.EVAL_BATCH)])
    run.traced(infer.b64)()
    untraced: list[float] = []
    rounds(run, feats, feats, load, infer.b64, infer.b64, infer.b64, infer.b1,
           untraced=lambda: infer.b1(untraced))
    for phase in (feats, load, infer):
        phase.report()
    if run.trace:
        overhead(run, infer.b1_s, untraced, "batch-1 inference")


def workload_grid(run: Run) -> None:
    data = make_data(run, run.size.grid_clips_per)
    cfg = RunConfig(epochs=run.size.grid_epochs, seed=run.seed)
    cfg_path = os.path.join(run.fresh_dir("cfg"), "run.cfg")
    save_config(cfg_path, cfg)
    feats = FeaturePass(run, data)
    setup = TrainingSetup(run, data, cfg)
    grid = GridCalls(run, data, cfg_path)
    untraced = GridCalls(run, data, cfg_path)
    # --jobs 2 reads far noisier than --jobs 1, so it gets two calls in three.
    rounds(run, feats, setup, lambda: grid(1), lambda: grid(2), lambda: grid(2),
           untraced=lambda: untraced(1))
    for phase in (feats, setup, grid):
        phase.report()
    if run.trace:
        overhead(run, grid.run_s(1), untraced.run_s(1), "grid run at --jobs 1")


def overhead(run: Run, traced: list[float], untraced: list[float], what: str) -> None:
    pct = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    run.extra["trace.overhead_pct"] = (pct, "%")
    run.show("trace.overhead_pct", pct, "%",
             f"{what} p50 traced (n={len(traced)}) vs untraced (n={len(untraced)})")


WORKLOADS = {
    "train_r3": lambda run: workload_train(run, routing_iters=3, use_decoder=False),
    "train_desk": lambda run: workload_train(run, routing_iters=1, use_decoder=True),
    "featurize_infer": workload_featurize_infer,
    "grid_routing": workload_grid,
}


# ---------------------------------------------------------------------------
# environment and output

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def blas_threads() -> int | str:
    """OpenBLAS's thread count, asked of the library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return "unknown"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(run: Run) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = {k: os.environ.get(k, "unset") for k in THREAD_VARS}
    thread_vars.update({k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "num_threads_env": thread_vars,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "backend": kernels.ACTIVE_BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
    }


def per_layer(run: Run) -> dict[str, tuple[float | None, str]]:
    if run.tracer is None:
        return dict(run.extra)
    out = spans.layer_metrics(run.tracer)
    out.update(run.extra)
    run.tracer.dump(OUT_DIR / f"spans-{run.workload}-seed{run.seed}.jsonl")
    return out


def per_layer_names() -> list[str]:
    """The --trace 1 JSON metrics: every per-layer metric all workloads exercise."""
    names = [k for k in spans.layer_metrics(spans.Tracer()) if k not in WORKLOAD_SPECIFIC]
    return names + list(HARNESS_LAYER)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    run = Run(name, seed, seconds, trace, size)
    env = environment(run)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    crashed = False
    try:
        WORKLOADS[name](run)
    except Exception:
        crashed = True
        traceback.print_exc()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if trace:
        layer = per_layer(run)
        metrics = {k: layer.get(k, (None, "")) for k in per_layer_names()}
        shown = {k: v for k, v in layer.items() if k not in metrics}
    else:
        metrics = {k: (run.e2e.get(k), unit) for k, unit in END_TO_END.items()}
        shown = dict(run.extra)
    missing = [k for k, (v, _) in metrics.items() if v is None]
    correct = not crashed and run.failed == 0 and not missing

    print(f"workload {name}  seed {seed}  trace {int(trace)}"
          + ("  (timings below ran with the spans installed)" if trace else ""))
    for label, value, unit, note in run.shown:
        print(f"  {label:34s} {value:14.6g} {unit:6s} {note}")
    if trace:
        for label, (value, unit) in metrics.items():
            print(f"  {label:34s} {_fmt(value)} {unit}")
    for label, (value, unit) in sorted(shown.items()):
        print(f"  {label:34s} {_fmt(value)} {unit:6s} (not in the JSON line)")
    for line in run.digests:
        print(f"  digest {line}")
    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"  ops_failed_ratio {ratio:.6g} ({run.failed} failed of {run.attempted} attempted)")
    for err in run.errors[:10]:
        print(f"  FAILED {err}")
    if missing:
        print(f"  MISSING {', '.join(missing)}")

    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if v is not None},
    }
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "digests": run.digests,
                   "shown": run.shown, "other": {k: list(v) for k, v in shown.items()},
                   "errors": run.errors}, fh, indent=1)
    return result


def _fmt(value) -> str:
    return f"{'n/a':>14s}" if value is None else f"{value:14.6g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test")
    args = p.parse_args(argv)
    size = TINY if args.tiny else FULL
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), size)
               for n in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
