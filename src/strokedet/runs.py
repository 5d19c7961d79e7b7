"""Force-run ingestion: gap interpolation, sliding windows, normalization, splits.

A run is a single-channel force recording at 200 Hz with a per-sample validity
flag (invalid samples mark transmission gaps that arrive pre-flagged in the
input files). Windows are fixed-length segments cut with a constant stride and
min-max normalized individually. Dataset splits are subject-aware: all runs of
an athlete land in exactly one partition.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

SAMPLE_RATE_HZ = 200
WINDOW_LENGTH = 1000
WINDOW_STRIDE = 100
HOLDOUT = "holdout"

BOAT_TYPES = ("canoe", "kayak")

_RUN_FILENAME_RE = re.compile(r"^run(?P<run_id>[A-Za-z0-9]+)_ath(?P<athlete_id>[A-Za-z0-9]+)\.csv$")


@dataclass
class RawRun:
    """One athlete's force recording with per-sample validity flags."""

    run_id: str
    athlete_id: str
    boat_type: str
    force: np.ndarray
    valid: np.ndarray
    sample_rate: int = SAMPLE_RATE_HZ

    def __post_init__(self):
        self.force = np.asarray(self.force, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.sample_rate != SAMPLE_RATE_HZ:
            raise DataError(f"run {self.run_id}: sample rate must be {SAMPLE_RATE_HZ} Hz, got {self.sample_rate}")
        if self.boat_type not in BOAT_TYPES:
            raise DataError(f"run {self.run_id}: unknown boat type {self.boat_type!r}")
        if self.force.ndim != 1 or self.force.shape != self.valid.shape:
            raise DataError(f"run {self.run_id}: force/valid must be matching 1-D arrays")
        if self.force.size == 0:
            raise DataError(f"run {self.run_id}: empty run")
        if not self.valid.any():
            raise DataError(f"run {self.run_id}: no valid samples")

    def __len__(self) -> int:
        return self.force.size


@dataclass
class Window:
    """A fixed-length signal segment with provenance into its source run."""

    run_id: str
    athlete_id: str
    start: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise DataError("window values must be a non-empty 1-D array")


@dataclass
class SplitPlan:
    """Athlete -> partition label ('holdout' or 'fold<i>')."""

    assignments: dict
    seed: int
    n_folds: int

    def athletes(self, label: str) -> list:
        return sorted(a for a, lab in self.assignments.items() if lab == label)


def interpolate_gaps(run: RawRun) -> RawRun:
    """Fill invalid samples: linear between valid neighbors, hold at the edges.

    Valid samples are preserved bit-exactly.
    """
    if not run.valid.any():
        raise DataError(f"run {run.run_id}: cannot interpolate, no valid samples")
    if run.valid.all():
        return replace(run, force=run.force.copy(), valid=run.valid.copy())
    idx = np.flatnonzero(run.valid)
    filled = np.interp(np.arange(len(run)), idx, run.force[idx])
    filled[run.valid] = run.force[run.valid]
    return replace(run, force=filled, valid=np.ones(len(run), dtype=bool))


def slide_windows(run: RawRun, length: int = WINDOW_LENGTH, stride: int = WINDOW_STRIDE) -> list:
    """Cut windows at starts 0, stride, 2*stride, ...; trailing remainder is dropped.

    A run shorter than one window yields an empty list (warned, not an error).
    """
    if length <= 0 or stride <= 0:
        raise ConfigError("window length and stride must be positive")
    n = len(run)
    if n < length:
        warnings.warn(f"run {run.run_id}: {n} samples < window length {length}, no windows emitted")
        return []
    return [
        Window(run.run_id, run.athlete_id, s, run.force[s:s + length].copy())
        for s in range(0, n - length + 1, stride)
    ]


def minmax_normalize(values) -> np.ndarray:
    """(x - min) / (max - min); a constant input maps to all zeros."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot normalize an empty sequence")
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def subject_aware_split(runs, n_folds: int, holdout_fraction: float, seed: int) -> SplitPlan:
    """Shuffle athletes by seed, carve off the holdout, round-robin the rest into folds.

    Holdout count is ceil(holdout_fraction * n_athletes), taken before fold
    assignment so the holdout is never empty for a positive fraction.
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    if not 0.0 <= holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in [0, 1), got {holdout_fraction}")
    athletes = sorted({r.athlete_id for r in runs})
    if len(athletes) < n_folds + 1:
        raise DataError(f"need at least {n_folds + 1} athletes for {n_folds} folds, got {len(athletes)}")
    rng = np.random.default_rng(seed)
    order = [athletes[i] for i in rng.permutation(len(athletes))]
    n_hold = math.ceil(holdout_fraction * len(athletes))
    if len(order) - n_hold < n_folds:
        raise DataError(
            f"{len(athletes)} athletes minus {n_hold} holdout leaves fewer than {n_folds} for folds"
        )
    assignments = {a: HOLDOUT for a in order[:n_hold]}
    for i, athlete in enumerate(order[n_hold:]):
        assignments[athlete] = f"fold{i % n_folds}"
    return SplitPlan(assignments=assignments, seed=seed, n_folds=n_folds)


# --- file formats -----------------------------------------------------------

def run_filename(run: RawRun) -> str:
    return f"run{run.run_id}_ath{run.athlete_id}.csv"


def write_run_csv(run: RawRun, directory) -> Path:
    """One CSV per sensor channel per run: header `index,force,valid`."""
    path = Path(directory) / run_filename(run)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "force", "valid"])
        for i in range(len(run)):
            writer.writerow([i, repr(float(run.force[i])), int(run.valid[i])])
    return path


def read_run_csv(path, boat_type: str = "canoe") -> RawRun:
    path = Path(path)
    m = _RUN_FILENAME_RE.match(path.name)
    if m is None:
        raise DataError(f"{path.name}: filename does not match run<id>_ath<id>.csv")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path.name}: not a readable CSV file: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["index", "force", "valid"]:
        raise DataError(f"{path.name}: expected header index,force,valid, got {header}")
    force = []
    valid = []
    for expected, row in enumerate(rows[1:]):
        where = f"{path.name}: line {expected + 2}"
        if len(row) != 3:
            raise DataError(f"{where}: malformed row {row}")
        try:
            index, value = int(row[0]), float(row[1])
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if index != expected:
            raise DataError(f"{path.name}: index column must be contiguous from 0")
        if row[2] not in ("0", "1"):
            raise DataError(f"{where}: valid column must be 0 or 1, got {row[2]!r}")
        if row[2] == "1" and not math.isfinite(value):
            raise DataError(f"{where}: non-finite force {row[1]!r} on a valid sample")
        force.append(value)
        valid.append(row[2] == "1")
    return RawRun(
        run_id=m.group("run_id"),
        athlete_id=m.group("athlete_id"),
        boat_type=boat_type,
        force=np.asarray(force),
        valid=np.asarray(valid),
    )


def write_split_json(plan: SplitPlan, path) -> None:
    payload = {"seed": plan.seed, "n_folds": plan.n_folds, "assignments": plan.assignments}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_split_json(path) -> SplitPlan:
    try:
        payload = json.loads(Path(path).read_text())
        return SplitPlan(
            assignments=dict(payload["assignments"]),
            seed=int(payload["seed"]),
            n_folds=int(payload["n_folds"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{path}: not a valid split plan: {exc}") from exc
