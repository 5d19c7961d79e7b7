"""Force-run ingestion: gap interpolation, normalization, splits.

A run is a single-channel force recording at the fixed 200 Hz (`SAMPLE_RATE_HZ`;
no other rate exists, so a run does not carry one) with a per-sample validity
flag (invalid samples mark transmission gaps that arrive pre-flagged in the
input files). Dataset splits are subject-aware: all runs of an athlete land in
exactly one partition.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

SAMPLE_RATE_HZ = 200
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

    def __post_init__(self):
        self.force = np.asarray(self.force, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
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
class SplitPlan:
    """Athlete -> partition label ('holdout' or 'fold<i>')."""

    assignments: dict
    seed: int
    n_folds: int


def interpolate_gaps(run: RawRun) -> RawRun:
    """Fill invalid samples: linear between valid neighbors, hold at the edges.

    Valid samples are preserved bit-exactly.
    """
    if not run.valid.any():
        raise DataError(f"run {run.run_id}: cannot interpolate, no valid samples")
    if run.valid.all():
        return replace(run, force=run.force.copy(), valid=run.valid.copy())
    idx = np.flatnonzero(run.valid)
    gaps = np.flatnonzero(~run.valid)
    filled = run.force.copy()
    filled[gaps] = np.interp(gaps, idx, run.force[idx])
    return replace(run, force=filled, valid=np.ones(len(run), dtype=bool))


def minmax_normalize(values) -> np.ndarray:
    """(x - min) / (max - min) along the last axis; a constant row maps to all zeros."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot normalize an empty sequence")
    axis = -1 if x.ndim else None
    lo = x.min(axis=axis, keepdims=True)
    hi = x.max(axis=axis, keepdims=True)
    return np.divide(x - lo, hi - lo, out=np.zeros_like(x), where=hi != lo)


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


def run_file_ids(path) -> tuple:
    """(run_id, athlete_id) from a run<id>_ath<id>.csv file name."""
    m = _RUN_FILENAME_RE.match(Path(path).name)
    if m is None:
        raise DataError(f"{Path(path).name}: filename does not match run<id>_ath<id>.csv")
    return m.group("run_id"), m.group("athlete_id")


def read_run_csv(path, boat_type: str = "canoe") -> RawRun:
    path = Path(path)
    run_id, athlete_id = run_file_ids(path)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
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
        run_id=run_id,
        athlete_id=athlete_id,
        boat_type=boat_type,
        force=np.asarray(force),
        valid=np.asarray(valid),
    )


def write_split_json(plan: SplitPlan, path) -> None:
    payload = {"seed": plan.seed, "n_folds": plan.n_folds, "assignments": plan.assignments}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_split_json(path) -> SplitPlan:
    """The plan `write_split_json` wrote; as `subject_aware_split` makes them,
    2 <= n_folds <= athletes and every label is 'holdout' or 'fold<i>', i < n_folds."""
    try:
        payload = json.loads(Path(path).read_text())
        plan = SplitPlan(
            assignments=dict(payload["assignments"]),
            seed=int(payload["seed"]),
            n_folds=int(payload["n_folds"]),
        )
    except (OSError, KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise DataError(f"{path}: not a valid split plan: {exc}") from exc
    if not 2 <= plan.n_folds <= len(plan.assignments):
        raise DataError(f"{path}: n_folds {plan.n_folds} outside [2, {len(plan.assignments)} athletes]")
    labels = {HOLDOUT, *(f"fold{i}" for i in range(plan.n_folds))}
    for athlete, label in plan.assignments.items():
        if not isinstance(label, str) or label not in labels:
            raise DataError(f"{path}: athlete {athlete!r} has label {label!r}, "
                            f"not holdout or fold0..fold{plan.n_folds - 1}")
    return plan
