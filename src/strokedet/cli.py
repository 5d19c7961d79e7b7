"""Command-line pipeline: synth, preprocess, train, predict, evaluate, crossval, arch.

Every command is a pure function of (config, input files); reruns with the
same inputs produce byte-identical outputs apart from the manifest's
created_at field. Exit codes: 0 success, 2 config error (an output path that
cannot be written included), 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import labels as lb
from . import pipeline as pl
from . import postprocess as pp
from . import runs as rn
from . import softed as se
from .architectures import (
    ARCHITECTURE_NAMES,
    DISPLAY_NAMES,
    architecture_table,
    build_architecture,
    count_params,
)
from .config import PipelineConfig, load_config
from .errors import ConfigError, DataError, StrokedetError
from .synth import generate_dataset
from .training import predict_batch, save_history_csv, train_model
from .weights_io import load_arrays, save_arrays, save_arrays_json


def _config(args) -> PipelineConfig:
    return load_config(args.config, args.overrides)


def _load_dataset(args, cfg: PipelineConfig) -> pl.WindowDataset:
    """The dataset of `--data`, refused when `cfg`'s window keys do not fit its windows."""
    ds = pl.load_dataset(args.data)
    se.valid_range(ds.window_length, cfg.margin_h)
    if cfg.sg_window > ds.window_length:
        raise ConfigError(f"sg_window {cfg.sg_window} exceeds the {ds.window_length}-sample windows")
    return ds


def cmd_synth(args) -> int:
    cfg = _config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for synth_run in generate_dataset(cfg.synth_config()):
        run = synth_run.run
        run_path = rn.write_run_csv(run, out_dir)
        events_path = out_dir / f"{run_path.stem}.events.jsonl"
        lb.write_events_jsonl(events_path, synth_run.events)
        entries.append({
            "run_id": run.run_id,
            "athlete_id": run.athlete_id,
            "boat_type": run.boat_type,
            "run_csv": run_path.name,
            "events": events_path.name,
            "n_samples": len(run),
            "n_events": len(synth_run.events),
        })
    manifest = pl.write_synth_manifest(
        out_dir, cfg, entries, created_at=datetime.now(timezone.utc).isoformat()
    )
    print(f"wrote {len(entries)} runs to {out_dir} (digest {manifest['digest'][:12]})")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _config(args)
    pairs = pl.load_runs_dir(args.data)
    ds = pl.materialize_dataset(pairs, cfg)
    pl.save_dataset(ds, args.out)
    n_train = len(ds.partition_indices("train"))
    n_hold = len(ds.partition_indices(rn.HOLDOUT))
    print(f"{ds.X.shape[0]} windows ({n_train} train, {n_hold} holdout) -> {args.out}")
    return 0


def _training_sets(ds: pl.WindowDataset, cfg: PipelineConfig, val_fold: int):
    train_idx = ds.partition_indices("train_minus_val", val_fold=val_fold)
    val_idx = ds.partition_indices(f"fold{val_fold}")
    train = [(ds.X[i], ds.Y[i]) for i in train_idx]
    val = [(ds.X[i], ds.Y[i]) for i in val_idx]
    return train, val


def cmd_train(args) -> int:
    cfg = _config(args)
    spec = build_architecture(cfg.arch)
    if args.count_only:
        print(f"{count_params(spec):,}")
        return 0
    if args.data is None or args.weights is None:
        raise ConfigError("train needs --data and --weights (or --count-only)")
    ds = pl.load_dataset(args.data)
    train, val = _training_sets(ds, cfg, cfg.val_fold)
    params, history = train_model(spec, train, cfg.train_config(), val_dataset=val)
    save_arrays(args.weights, params)
    if args.weights_json:
        save_arrays_json(args.weights_json, params)
    if args.history:
        save_history_csv(history, args.history)
    final = history[-1]
    print(f"trained {DISPLAY_NAMES[spec.name]} for {len(history)} epochs; "
          f"final train loss {final[1]:.6f}, val loss {final[2]:.6f}")
    return 0


def _window_outputs(ds: pl.WindowDataset, indices, cfg: PipelineConfig, args) -> np.ndarray:
    if not indices:
        raise DataError(f"partition {args.partition!r} contains no windows")
    if getattr(args, "predict_from_labels", False):
        return ds.Y[indices]
    if args.weights is None:
        raise ConfigError("either --weights or --predict-from-labels is required")
    spec = build_architecture(cfg.arch)
    params = load_arrays(args.weights)
    return predict_batch(spec, params, ds.X[indices], batch_size=cfg.batch_size)


def cmd_predict(args) -> int:
    cfg = _config(args)
    ds = _load_dataset(args, cfg)
    indices = ds.partition_indices(args.partition, val_fold=cfg.val_fold)
    outputs = _window_outputs(ds, indices, cfg, args)
    extractor = cfg.extractor_config()
    groups = [
        (pl.window_name(ds.meta[i]), pp.extract_events(outputs[row], extractor))
        for row, i in enumerate(indices)
    ]
    pp.write_detections_jsonl(args.out, groups)
    total = sum(len(dets) for _, dets in groups)
    print(f"{total} detections over {len(groups)} windows -> {args.out}")
    return 0


def _evaluate(ds: pl.WindowDataset, indices, outputs, cfg: PipelineConfig) -> se.WindowedEvaluation:
    extractor = cfg.extractor_config()
    window_sets = []
    for row, i in enumerate(indices):
        detections = pp.extract_events(outputs[row], extractor)
        window_sets.append((ds.events[i], detections))
    return se.evaluate_windowed(window_sets, ds.window_length, cfg.eval_config())


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    ds = _load_dataset(args, cfg)
    indices = ds.partition_indices(args.partition, val_fold=cfg.val_fold)
    outputs = _window_outputs(ds, indices, cfg, args)
    result = _evaluate(ds, indices, outputs, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    se.write_metrics_json(result, out_dir / "metrics.json")
    se.write_histogram_csv(result, out_dir / "histogram.csv")
    m = result.metrics
    print(f"precision {_fmt(m.precision)}  recall {_fmt(m.recall)}  f1 {_fmt(m.f1)}  "
          f"({result.n_windows} windows, k={result.k}, h={result.h})")
    return 0


def cmd_crossval(args) -> int:
    cfg = _config(args)
    ds = _load_dataset(args, cfg)
    spec = build_architecture(cfg.arch)
    n_params = count_params(spec)
    rows = []
    for fold in range(ds.split.n_folds):
        train, _ = _training_sets(ds, cfg, fold)
        if not train:
            raise DataError(f"fold {fold}: empty training set")
        params, _ = train_model(spec, train, cfg.train_config())
        eval_idx = ds.partition_indices(f"fold{fold}")
        outputs = predict_batch(spec, params, ds.X[eval_idx], batch_size=cfg.batch_size)
        result = _evaluate(ds, eval_idx, outputs, cfg)
        m = result.metrics
        rows.append((f"fold{fold}", m.precision, m.recall, m.f1))
        print(f"fold{fold}: precision {_fmt(m.precision)}  recall {_fmt(m.recall)}  f1 {_fmt(m.f1)}")
    defined = lambda col: [r[col] for r in rows if r[col] is not None]
    mean_row = ("mean",) + tuple(
        (sum(vals) / len(vals) if (vals := defined(col)) else None) for col in (1, 2, 3)
    )
    rows.append(mean_row)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_crossval_report(out_dir, DISPLAY_NAMES[spec.name], n_params, rows)
    print(f"report -> {out_dir / 'crossval.csv'}")
    return 0


def _write_crossval_report(out_dir: Path, arch_display: str, n_params: int, rows) -> None:
    def cell(v):
        return "" if v is None else f"{v:.4f}"

    csv_lines = ["fold,architecture,precision,recall,f1,n_parameters"]
    csv_lines.extend(
        f"{name},{arch_display},{cell(p)},{cell(r)},{cell(f1)},{n_params}"
        for name, p, r, f1 in rows
    )
    (out_dir / "crossval.csv").write_text("\n".join(csv_lines) + "\n")

    header = f"{'fold':<8}{'architecture':<14}{'precision':>11}{'recall':>9}{'F1':>9}{'# parameters':>15}"
    text_lines = [header, "-" * len(header)]
    text_lines.extend(
        f"{name:<8}{arch_display:<14}{cell(p):>11}{cell(r):>9}{cell(f1):>9}{n_params:>15,}"
        for name, p, r, f1 in rows
    )
    (out_dir / "crossval.txt").write_text("\n".join(text_lines) + "\n")


def cmd_arch(args) -> int:
    _config(args)  # validate config/overrides even though only the name is used
    names = [args.name] if args.name else list(ARCHITECTURE_NAMES)
    for name in names:
        spec = build_architecture(name)
        print(DISPLAY_NAMES[spec.name])
        width = 18
        print(f"  {'layer':<{width}}{'output shape':<22}{'# parameters':>14}  activation")
        for label, shape, n, activation in architecture_table(spec):
            print(f"  {label:<{width}}{shape:<22}{n:>14,}  {activation}")
        print(f"  total parameters: {count_params(spec):,}")
        if len(names) > 1:
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokedet",
        description="Paddle-stroke event detection pipeline on 1-D force signals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="key = value config file")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, outputs=("out",)):
        """A subcommand; `outputs` names its options that give paths it writes."""
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func, outputs=outputs)
        return p

    p = command("synth", cmd_synth, "generate a labeled synthetic dataset")
    p.add_argument("--out", required=True, help="output directory for runs + manifest")

    p = command("preprocess", cmd_preprocess, "windows, targets, and split plan from raw runs")
    p.add_argument("--data", required=True, help="directory with run CSVs and event files")
    p.add_argument("--out", required=True, help="output directory for the materialized dataset")

    p = command("train", cmd_train, "train one architecture on the train partition",
                outputs=("weights", "weights_json", "history"))
    p.add_argument("--arch", default=None, help="architecture name (overrides config)")
    p.add_argument("--data", default=None, help="preprocessed dataset directory")
    p.add_argument("--weights", type=Path, default=None, help="output weights file")
    p.add_argument("--weights-json", type=Path, default=None, help="also export weights as JSON")
    p.add_argument("--history", type=Path, default=None, help="output per-epoch loss CSV")
    p.add_argument("--count-only", action="store_true",
                   help="print the exact parameter count and exit")

    for name, func, summary, out in [
        ("predict", cmd_predict, "extract detections for a partition", "output detections JSONL"),
        ("evaluate", cmd_evaluate, "soft precision/recall/F1 with margin restriction",
         "output directory for metrics + histogram"),
    ]:
        p = command(name, func, summary)
        p.add_argument("--data", required=True)
        p.add_argument("--weights", type=Path, default=None)
        p.add_argument("--predict-from-labels", action="store_true",
                       help="use smoothed targets as the model output (oracle mode)")
        p.add_argument("--partition", default=rn.HOLDOUT)
        p.add_argument("--out", required=True, help=out)

    p = command("crossval", cmd_crossval, "subject-aware k-fold training and evaluation")
    p.add_argument("--arch", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory for the report")

    p = command("arch", cmd_arch, "print layer tables and exact parameter counts", outputs=())
    p.add_argument("name", nargs="?", default=None,
                   help="one architecture name; omit to list all eight")

    return parser


def _writes(args, path: Path) -> bool:
    """Whether `path` is one of the command's output paths or lies under one."""
    outputs = {Path(value) for name in args.outputs if (value := getattr(args, name)) is not None}
    return not outputs.isdisjoint({path, *path.parents})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "arch", None):
        args.overrides = list(args.overrides) + [f"arch={args.arch}"]
    try:
        return args.func(args)
    except StrokedetError as exc:
        error = exc
    except OSError as exc:
        if exc.filename is None or not _writes(args, Path(exc.filename)):
            raise
        error = ConfigError(f"cannot write {exc.filename}: {exc.strerror}")
    print(f"error: {error}", file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
