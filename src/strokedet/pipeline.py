"""Glue between files and the processing stages.

`materialize_dataset` turns raw runs plus run-frame events into the on-disk
training dataset: gap-interpolated, windowed, min-max normalized inputs; run
-level smoothed targets sliced per window; window-relative ground-truth
events; and the subject-aware split plan. Arrays live in a deterministic
binary container, metadata in sorted-keys JSON, so reruns are byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import labels as lb
from . import runs as rn
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .weights_io import load_arrays, save_arrays

DATASET_BIN = "windows.bin"
DATASET_META = "windows.meta.json"
SPLIT_FILE = "split.json"
MANIFEST = "manifest.json"

KIND_FROM_SIGN = {sign: kind for kind, sign in lb.KIND_SIGNS.items()}


@dataclass
class WindowDataset:
    X: np.ndarray  # (n_windows, window_length) normalized inputs
    Y: np.ndarray  # (n_windows, window_length) smoothed targets
    meta: list  # per window: {"run_id", "athlete_id", "start"}
    events: list  # per window: [EventLabel, ...] window-relative
    split: rn.SplitPlan
    window_length: int
    window_stride: int

    def indices_for(self, labels_wanted) -> list:
        wanted = set(labels_wanted)
        return [
            i for i, m in enumerate(self.meta)
            if self.split.assignments.get(m["athlete_id"]) in wanted
        ]

    def partition_indices(self, partition: str, val_fold: int | None = None) -> list:
        """'holdout', 'fold<i>', 'train' (all folds), or 'train_minus_val'."""
        if partition == rn.HOLDOUT:
            return self.indices_for([rn.HOLDOUT])
        folds = [f"fold{i}" for i in range(self.split.n_folds)]
        if partition == "train":
            return self.indices_for(folds)
        if partition == "train_minus_val":
            if f"fold{val_fold}" not in folds:
                raise ConfigError(f"train_minus_val needs a validation fold in [0, {len(folds)}), "
                                  f"got {val_fold}")
            return self.indices_for([f for f in folds if f != f"fold{val_fold}"])
        if partition in folds:
            return self.indices_for([partition])
        raise ConfigError(f"unknown partition {partition!r}")


def write_synth_manifest(out_dir, cfg: PipelineConfig, entries, created_at: str) -> dict:
    """Manifest for a generated dataset; `digest` covers file contents only
    (created_at is the single non-reproducible field)."""
    sha = hashlib.sha256()
    for entry in sorted(entries, key=lambda e: e["run_csv"]):
        for key in ("run_csv", "events"):
            sha.update((Path(out_dir) / entry[key]).read_bytes())
    manifest = {
        "created_at": created_at,
        "seed": cfg.seed,
        "config": cfg.as_dict(),
        "files": sorted(entries, key=lambda e: e["run_csv"]),
        "digest": sha.hexdigest(),
    }
    path = Path(out_dir) / MANIFEST
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def load_runs_dir(data_dir):
    """Read every run CSV plus its events file; boat types come from the manifest,
    and with a manifest the run CSVs must be the runs it lists."""
    data_dir = Path(data_dir)
    boat_types = {}
    run_paths = sorted(data_dir.glob("run*_ath*.csv"))
    manifest_path = data_dir / MANIFEST
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
            boat_types = {e["run_id"]: e["boat_type"] for e in manifest.get("files", [])}
        except (OSError, AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{manifest_path}: not a valid manifest: {exc}") from exc
        on_disk = {rn.run_file_ids(path)[0]: path.name for path in run_paths}
        unlisted = sorted(name for run_id, name in on_disk.items() if run_id not in boat_types)
        missing = sorted(map(str, boat_types.keys() - on_disk.keys()))
        if unlisted or missing:
            raise DataError(f"{manifest_path}: run CSVs it does not list: {unlisted}; "
                            f"runs it lists with no CSV: {missing}")
    pairs = []
    if not run_paths:
        raise DataError(f"{data_dir}: no run CSV files found")
    for path in run_paths:
        run = rn.read_run_csv(path, boat_types.get(rn.run_file_ids(path)[0], "canoe"))
        events_path = path.with_suffix("").with_name(path.stem + ".events.jsonl")
        if not events_path.exists():
            raise DataError(f"{events_path}: missing events file for {path.name}")
        pairs.append((run, lb.read_events_jsonl(events_path)))
    return pairs


def materialize_dataset(run_event_pairs, cfg: PipelineConfig) -> WindowDataset:
    """Windows start at 0, stride, 2*stride, ... of each gap-filled run and are
    min-max normalized one by one; the trailing remainder is dropped, and a run
    shorter than one window yields none (warned, not an error). A window's
    events keep their run order; windows share one EventLabel per (t, kind)."""
    split = rn.subject_aware_split(
        [run for run, _ in run_event_pairs], cfg.n_folds, cfg.holdout_fraction, cfg.seed
    )
    length, stride = cfg.window_length, cfg.window_stride
    rows = sum(len(range(0, len(run) - length + 1, stride)) for run, _ in run_event_pairs)
    X, Y = np.empty((rows, length)), np.empty((rows, length))
    label = functools.cache(lb.EventLabel)  # one shared label per (t, kind) in this call
    meta, window_events = [], []
    for run, events in run_event_pairs:
        filled = rn.interpolate_gaps(run)
        n = len(filled)
        target = lb.smooth_events(events, n, cfg.label_kernel_window, cfg.label_sigma)
        if n < length:
            warnings.warn(f"run {run.run_id}: {n} samples < window length {length}, "
                          "no windows emitted")
            continue
        starts = range(0, n - length + 1, stride)
        at = slice(len(meta), len(meta) + len(starts))
        X[at] = rn.minmax_normalize(sliding_window_view(filled.force, length)[::stride])
        Y[at] = sliding_window_view(target, length)[::stride]
        order = sorted(range(len(events)), key=lambda i: events[i].t)
        times = [events[i].t for i in order]
        for start in starts:
            meta.append({"run_id": run.run_id, "athlete_id": run.athlete_id, "start": start})
            lo = bisect_left(times, start)
            window_events.append([
                label(events[i].t - start, events[i].kind)
                for i in sorted(order[lo:bisect_left(times, start + length, lo)])
            ])
    if not meta:
        raise DataError("no windows produced; runs shorter than the window length?")
    return WindowDataset(
        X=X,
        Y=Y,
        meta=meta,
        events=window_events,
        split=split,
        window_length=length,
        window_stride=stride,
    )


def save_dataset(ds: WindowDataset, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ev_window, ev_t, ev_sign = [], [], []
    for w, events in enumerate(ds.events):
        for ev in events:
            ev_window.append(w)
            ev_t.append(ev.t)
            ev_sign.append(lb.KIND_SIGNS[ev.kind])
    save_arrays(out_dir / DATASET_BIN, {
        "X": ds.X,
        "Y": ds.Y,
        "start": np.asarray([m["start"] for m in ds.meta], dtype=np.float64),
        "event_window": np.asarray(ev_window, dtype=np.float64),
        "event_t": np.asarray(ev_t, dtype=np.float64),
        "event_sign": np.asarray(ev_sign, dtype=np.float64),
    })
    meta = {
        "window_length": ds.window_length,
        "window_stride": ds.window_stride,
        "windows": [
            {"run_id": m["run_id"], "athlete_id": m["athlete_id"], "start": m["start"]}
            for m in ds.meta
        ],
    }
    (out_dir / DATASET_META).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    rn.write_split_json(ds.split, out_dir / SPLIT_FILE)


def load_dataset(data_dir) -> WindowDataset:
    data_dir = Path(data_dir)
    for name in (DATASET_BIN, DATASET_META, SPLIT_FILE):
        if not (data_dir / name).exists():
            raise DataError(f"{data_dir}: missing {name}; run the preprocess command first")
    bin_path = data_dir / DATASET_BIN
    arrays = load_arrays(bin_path)
    meta_path = data_dir / DATASET_META
    try:
        meta = json.loads(meta_path.read_text())
        windows = list(meta["windows"])
        window_length = int(meta["window_length"])
        window_stride = int(meta["window_stride"])
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DataError(f"{meta_path}: not a valid dataset meta file: {exc}") from exc
    split = rn.read_split_json(data_dir / SPLIT_FILE)
    for i, entry in enumerate(windows):
        if not (isinstance(entry, dict) and {"run_id", "athlete_id", "start"} <= entry.keys()
                and type(entry["start"]) is int):
            raise DataError(f"{meta_path}: window {i} is not an object with run_id, "
                            f"athlete_id and an integer start: {entry!r}")
        if not isinstance(entry["athlete_id"], str) or entry["athlete_id"] not in split.assignments:
            raise DataError(f"{meta_path}: window {i} athlete {entry['athlete_id']!r} "
                            f"is not listed in {SPLIT_FILE}")
    try:
        X, Y = arrays["X"], arrays["Y"]
        event_columns = arrays["event_window"], arrays["event_t"], arrays["event_sign"]
    except KeyError as exc:
        raise DataError(f"{bin_path}: missing array {exc}") from exc
    if X.ndim != 2 or X.shape != Y.shape or X.shape[1] != window_length:
        raise DataError(
            f"{bin_path}: X {X.shape} and Y {Y.shape} must both be (windows, {window_length})"
        )
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise DataError(f"{bin_path}: non-finite values in X or Y")
    n = X.shape[0]
    if len(windows) != n:
        raise DataError(f"{meta_path}: lists {len(windows)} windows, {bin_path} holds {n}")
    label = functools.cache(lb.EventLabel)  # one shared label per (t, kind) in this call
    events = [[] for _ in range(n)]
    for w, t, sign in zip(*(column.tolist() for column in event_columns)):
        if not (0 <= w < n and float(w).is_integer()):
            raise DataError(f"{bin_path}: event window index {w} is not an integer in [0, {n})")
        if not (0 <= t < window_length and float(t).is_integer()):
            raise DataError(f"{bin_path}: event time {t} is not an integer in [0, {window_length})")
        kind = KIND_FROM_SIGN.get(float(sign))
        if kind is None:
            raise DataError(f"{bin_path}: event sign {sign} is neither +1 nor -1")
        events[int(w)].append(label(int(t), kind))
    return WindowDataset(
        X=X,
        Y=Y,
        meta=windows,
        events=events,
        split=split,
        window_length=window_length,
        window_stride=window_stride,
    )


def window_name(meta_entry: dict) -> str:
    return f"run{meta_entry['run_id']}:{meta_entry['start']}"
