"""Command-line entry point.

Verbs: features, train, eval, grid, gradcheck, analyze, transfer,
synth-multilabel. Exit codes: 0 success, 1 runtime fault (including any
file the OS cannot open or create), 2 usage error, 3 configuration error.
Every fault is one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys

from .analysis import (AugmentSpec, DEFAULT_AMPLITUDE_LEVELS, DEFAULT_SPEED_LEVELS,
                       augment, capsule_scatter, export_transfer_features,
                       write_scatter)
from .atomic import atomic_write
from .audio import load_wav
from .config import apply_overrides, load_config
from .errors import CapsAudioError, ConfigError
from .features import FeatureConfig
from .manifest import materialize, synth_multilabel, save_manifest, targets_for
from .train import (GRID_AXES, ArrayDataset, evaluate, load_splits, load_trained,
                    metric_name, prepare_data, run_grid, run_training, write_grid_table)

GRADCHECK_TOLERANCE = 1e-4


def _comma_list(kind):
    """An argparse type: a comma-separated tuple of kind values."""
    def parse(text: str) -> tuple:
        return tuple(kind(x) for x in text.split(","))

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _sha256_file(path) -> str:
    """Hex sha256 of the file at path, read in 1 MiB pieces."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def _ensure_run_dir(path: str, force: bool) -> None:
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise ConfigError(f"run directory {path} exists and is not empty "
                          f"(use --force to overwrite)")
    os.makedirs(path, exist_ok=True)


def _load_cfg(args):
    cfg = load_config(args.config)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return cfg


def _load_matching(args):
    """The checkpoint plus load_splits(args.data); the data dir must have
    as many classes as the checkpoint scores."""
    trained = load_trained(args.checkpoint)
    mans, class_names = load_splits(args.data)
    if len(class_names) != trained.model.n_classes:
        raise ConfigError(f"{args.data} has {len(class_names)} classes but the "
                          f"checkpoint has {trained.model.n_classes}")
    return trained, mans, class_names


def _cmd_features(args) -> int:
    total = 0
    for man in load_splits(args.data)[0].values():
        materialize(man, args.data, FeatureConfig(), cache_dir=args.out)
        total += len(man.entries)
    print(f"features: cached {total} clips under {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    _ensure_run_dir(args.out, args.force)
    trained, metrics = run_training(cfg, args.data, out_dir=args.out,
                                    cache_dir=args.features)
    print(f"train: model={cfg.model} best_epoch={metrics.best_epoch} "
          f"{metrics.metric_name}={metrics.best_test_metric} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    trained, mans, class_names = _load_matching(args)
    man = mans[args.split]
    mats = materialize(man, args.data, FeatureConfig(), cache_dir=args.features)
    ds = ArrayDataset(trained.inputs(mats), targets_for(man, class_names))
    metric, _ = evaluate(trained, ds)
    print(f"eval: {args.split} {metric_name(trained.cfg.mode)}={metric}")
    return 0


def _cmd_grid(args) -> int:
    cfg = _load_cfg(args)
    _ensure_run_dir(args.out, args.force)
    train_ds, test_ds, _ = prepare_data(args.data, cfg.T_fix, args.features)
    rows = run_grid(cfg, args.axis, args.seeds, train_ds, test_ds, jobs=args.jobs)
    table = os.path.join(args.out, f"grid_{args.axis}.csv")
    write_grid_table(table, args.axis, rows, metric_name(cfg.mode))
    print(f"grid: {len(rows)} runs over {args.axis} -> {table}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import full_model_check, run_suite

    # --out is opened first, so a path that cannot be written fails before the suite.
    with (atomic_write(args.out) if args.out else contextlib.nullcontext()) as fh:
        results = run_suite(trials=args.trials)
        results["full_model"] = full_model_check(trials=min(3, args.trials))
        lines = [f"{name:12s} {err:.3e} {'ok' if err <= GRADCHECK_TOLERANCE else 'FAIL'}"
                 for name, err in results.items()]
        report = "\n".join(lines)
        print(report)
        if fh is not None:
            fh.write((report + "\n").encode("utf-8"))
    worst = max(results.values())
    print(f"gradcheck: worst {worst:.3e} over {len(results)} ops, "
          f"{args.trials} trials each")
    return 0 if worst <= GRADCHECK_TOLERANCE else 1


def _cmd_analyze(args) -> int:
    trained, mans, class_names = _load_matching(args)
    _ensure_run_dir(args.out, args.force)
    if args.target_class not in class_names:
        raise ConfigError(f"class {args.target_class!r} not in dataset "
                          f"(classes: {', '.join(class_names)})")
    class_index = class_names.index(args.target_class)

    levels = args.levels or (DEFAULT_AMPLITUDE_LEVELS if args.kind == "amplitude"
                             else DEFAULT_SPEED_LEVELS)
    spec = AugmentSpec(args.kind, levels)

    pairs = []
    for entry in mans[args.split].entries:
        if args.target_class not in entry.labels:
            continue
        clip = load_wav(os.path.join(args.data, entry.path))
        pairs.extend((augment(clip, spec, lvl), lvl) for lvl in spec.levels)
    if not pairs:
        raise ConfigError(f"no {args.split} clips labeled {args.target_class!r}")

    rows, pca = capsule_scatter(trained, pairs, class_index)
    digest = _sha256_file(args.checkpoint)
    table = os.path.join(args.out, f"scatter_{args.kind}.csv")
    write_scatter(table, rows, digest, pca)
    print(f"analyze: {len(rows)} projections of {args.target_class} -> {table}")
    return 0


def _cmd_transfer(args) -> int:
    trained = load_trained(args.checkpoint)
    _ensure_run_dir(args.out, args.force)
    n = 0
    for man in load_splits(args.data)[0].values():
        n += len(export_transfer_features(trained, man, args.data, args.out))
    print(f"transfer: wrote {n} augmented feature files under {args.out}")
    return 0


def _cmd_synth_multilabel(args) -> int:
    _ensure_run_dir(args.out, args.force)
    for split, src in load_splits(args.data)[0].items():
        out = synth_multilabel(src, args.data, args.out, seed=args.seed,
                               n_pairs=args.pairs)
        save_manifest(os.path.join(args.out, f"{split}.csv"), out)
    print(f"synth-multilabel: wrote concatenated dataset under {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsaudio",
        description="Capsule-network audio classifier experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common_run(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--data", required=True, help="dataset dir with train.csv/test.csv")
        p.add_argument("--out", required=True, help="run output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override, repeatable")
        p.add_argument("--features", default=None, help="feature cache directory")
        p.add_argument("--force", action="store_true")

    p = sub.add_parser("features", help="materialize the feature cache")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_features)

    p = sub.add_parser("train", help="train one model")
    common_run(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--features", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("grid", help="run a sweep axis")
    common_run(p)
    p.add_argument("--axis", required=True, choices=tuple(GRID_AXES))
    p.add_argument("--seeds", type=_comma_list(int), default="0",
                   help="comma-separated seed list")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="runs trained at a time in worker processes")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("gradcheck", help="finite-difference gradient table")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--out", default=None, help="also write the table here")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("analyze", help="capsule PCA scatter for one class")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=("amplitude", "speed"))
    p.add_argument("--target-class", required=True)
    p.add_argument("--levels", type=_comma_list(float), default=None,
                   help="comma-separated levels")
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("transfer", help="export capsule-augmented features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser("synth-multilabel", help="build a concatenated-pairs dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=_positive_int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_synth_multilabel)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except CapsAudioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        reason = e if e.filename is None else f"{e.filename}: {e.strerror}"
        print(f"error: {reason}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
