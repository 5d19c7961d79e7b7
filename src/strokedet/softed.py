"""Soft event-detection scoring with a margin-restricted windowed extension.

Implements the SoftED family of metrics (Salles et al., 2023): each
ground-truth event carries a triangular membership function of temporal
distance, detections earn partial credit through a one-to-one association, and
the soft confusion sums feed soft precision/recall/F1.

For sliding-window evaluation, entities near the window edges may have their
true counterpart in a neighboring window. To avoid penalizing those, scoring
is restricted to a valid range that excludes a margin of h samples at each
end: events and detections inside a margin are dropped, and so is anything
whose candidate partner lies inside a margin. The effective number of time
samples shrinks by 2h accordingly.

Association builds one (events x detections) weight matrix, k - |dt| for
same-kind entities closer than k samples and 0 otherwise; its nonzero entries
are the candidate pairs the restriction reads. The matching is computed on
first use of `Assignment.pairs`: an exact maximum-total-membership one-to-one
matching. Among equally optimal matchings the preferred one takes candidate
pairs in order of descending membership, then earlier event, then earlier
detection, keeping each pair that still leaves the optimum reachable, which
makes the matched-pair set deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .labels import KIND_SIGNS, ONSET

_TOL = 1e-9


@dataclass(frozen=True)
class TimedEvent:
    t: float
    kind: str


@dataclass
class Assignment:
    """Candidate weights of one association; the matching is solved on first use."""

    events: list
    detections: list
    weights: np.ndarray  # (events, detections): k - |dt| for candidates, else 0
    k: float

    @cached_property
    def pairs(self) -> list:
        """[(event_index, detection_index, membership)], sorted.

        Candidate pairs are taken in preference order and each is kept when a
        maximum-total matching of the still-free rows and columns reaches the
        optimum with it; every check is one Hungarian solve, skipped when the
        last optimal matching already holds the pair.
        """
        w = self.weights
        rows, cols = np.nonzero(w)
        if rows.size == 0:
            return []
        from scipy.optimize import linear_sum_assignment  # not at import: shard workers never score

        weight = w[rows, cols]
        event_t = np.array([e.t for e in self.events])
        detection_t = np.array([d.t for d in self.detections])
        order = np.lexsort((cols, rows, detection_t[cols], event_t[rows], -weight))
        r, c = linear_sum_assignment(w, maximize=True)
        partner = dict(zip(r.tolist(), c.tolist()))  # detection of each free event in the last optimum
        target = w[r, c].sum()
        free_e = [True] * w.shape[0]
        free_d = [True] * w.shape[1]
        fixed = 0.0
        pairs = []
        for ei, di, wi in zip(rows[order].tolist(), cols[order].tolist(), weight[order].tolist()):
            if not (free_e[ei] and free_d[di]):
                continue
            free_e[ei] = free_d[di] = False
            if partner.get(ei) != di:
                fe, fd = np.flatnonzero(free_e), np.flatnonzero(free_d)
                sub = w[np.ix_(fe, fd)]
                r, c = linear_sum_assignment(sub, maximize=True)
                if fixed + wi + sub[r, c].sum() < target - _TOL:
                    free_e[ei] = free_d[di] = True
                    continue
                partner = dict(zip(fe[r].tolist(), fd[c].tolist()))
            fixed += wi
            pairs.append((ei, di, wi / self.k))
        pairs.sort()
        return pairs

    def total_membership(self) -> float:
        return float(sum(mu for _, _, mu in self.pairs))


@dataclass
class SoftConfusion:
    tp_s: float = 0.0
    fp_s: float = 0.0
    fn_s: float = 0.0
    tn_s: float = 0.0
    n_events: int = 0
    n_detections: int = 0
    n_time: int = 0

    def __iadd__(self, other: "SoftConfusion") -> "SoftConfusion":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class Metrics:
    """None marks an undefined metric (zero denominator), distinct from 0."""

    precision: float | None
    recall: float | None
    f1: float | None


@dataclass
class WindowEvalConfig:
    tolerance_k: int = 15
    margin_h: int = 15

    def __post_init__(self):
        if self.tolerance_k <= 0:
            raise ConfigError(f"tolerance k must be positive, got {self.tolerance_k}")
        if self.margin_h < 0:
            raise ConfigError(f"margin h must be >= 0, got {self.margin_h}")


@dataclass
class WindowedEvaluation:
    confusion: SoftConfusion
    metrics: Metrics
    histogram: np.ndarray  # k+1 buckets, see histogram_rows
    n_windows: int
    k: int
    h: int


def membership(t_e, t_d, k) -> float:
    """Triangular partial credit: 1 at an exact hit, 0 from k samples away."""
    if k <= 0:
        raise ConfigError(f"tolerance k must be positive, got {k}")
    return max(0.0, 1.0 - abs(t_d - t_e) / k)


def _timed(item) -> TimedEvent:
    if isinstance(item, TimedEvent):
        return item
    if isinstance(item, (int, float, np.integer, np.floating)):
        return TimedEvent(float(item), ONSET)
    if isinstance(item, tuple):
        return TimedEvent(float(item[0]), item[1])
    return TimedEvent(float(item.t), item.kind)


def _coerce(items) -> list:
    """`items` as TimedEvents sorted by (t, kind); an unknown kind raises ConfigError."""
    out = [item if type(item) is TimedEvent else _timed(item) for item in items]
    for ev in out:
        if ev.kind not in KIND_SIGNS:
            raise ConfigError(f"unknown event kind {ev.kind!r}")
    out.sort(key=attrgetter("t", "kind"))
    return out


def associate(events, detections, k) -> Assignment:
    """Exact max-membership one-to-one matching, same-kind only.

    Weights are k - |dt|, integer-valued for integer inputs, so optimality
    tests are exact. The matching itself is computed when `.pairs` is first
    read; the restriction needs only the candidate weights.
    """
    if k <= 0:
        raise ConfigError(f"tolerance k must be positive, got {k}")
    evs = _coerce(events)
    dets = _coerce(detections)
    event_t = np.array([e.t for e in evs], dtype=np.float64)
    detection_t = np.array([d.t for d in dets], dtype=np.float64)
    weights = np.maximum(k - np.abs(event_t[:, None] - detection_t[None, :]), 0.0)
    event_onset = np.array([e.kind == ONSET for e in evs], dtype=bool)
    detection_onset = np.array([d.kind == ONSET for d in dets], dtype=bool)
    weights[event_onset[:, None] != detection_onset[None, :]] = 0.0
    return Assignment(events=evs, detections=dets, weights=weights, k=k)


def valid_range(n_time: int, h: int) -> range:
    """0-based valid indices {i | h <= i < n_time - h}; cardinality n_time - 2h."""
    if 2 * h >= n_time:
        raise ConfigError(f"margin_h {h} leaves no valid range in a {n_time}-sample window")
    return range(h, n_time - h)


def restrict(assignment: Assignment, valid: range):
    """Events/detections kept for scoring: inside the valid range, with every
    candidate partner inside it too. Returns (events, detections)."""

    def outside(items):
        return [i for i, x in enumerate(items) if not valid.start <= x.t < valid.stop]

    w = assignment.weights
    out_e, out_d = outside(assignment.events), outside(assignment.detections)
    drop_e = set(out_e).union(*(np.flatnonzero(w[:, j] > 0).tolist() for j in out_d))
    drop_d = set(out_d).union(*(np.flatnonzero(w[i] > 0).tolist() for i in out_e))
    return ([e for i, e in enumerate(assignment.events) if i not in drop_e],
            [d for i, d in enumerate(assignment.detections) if i not in drop_d])


def confusion_from_assignment(assignment: Assignment, n_time: int) -> SoftConfusion:
    tp = assignment.total_membership()
    n_e = len(assignment.events)
    n_d = len(assignment.detections)
    fp = n_d - tp
    fn = n_e - tp
    return SoftConfusion(
        tp_s=tp,
        fp_s=fp,
        fn_s=fn,
        tn_s=max(0.0, (n_time - n_e) - fp),
        n_events=n_e,
        n_detections=n_d,
        n_time=n_time,
    )


def soft_confusion(events, detections, n_time: int, k) -> SoftConfusion:
    """Soft TP/FP/FN/TN for already-restricted (or unwindowed) entity sets."""
    return confusion_from_assignment(associate(events, detections, k), n_time)


def soft_metrics(confusion: SoftConfusion) -> Metrics:
    tp, fp, fn = confusion.tp_s, confusion.fp_s, confusion.fn_s
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(precision=precision, recall=recall, f1=f1)


def _bucket_index(mu: float, k: int) -> int:
    # attainable values are exactly j/k; the last bucket is reserved for mu == 1
    return min(k, int(math.floor(mu * k + _TOL)))


def evaluate_windowed(window_sets, n_time: int, cfg: WindowEvalConfig | None = None) -> WindowedEvaluation:
    """Score per-window (events, detections) pairs with margin restriction.

    Per window: associate over the full window content, drop margin-coupled
    entities, re-associate the survivors, and score against n_time - 2h time
    samples. Confusions are micro-aggregated (summed) before computing
    metrics. The histogram collects matched memberships plus a zero entry per
    unmatched restricted entity, bucketed at resolution 1/k with a dedicated
    bucket for exact hits.
    """
    cfg = cfg or WindowEvalConfig()
    k, h = cfg.tolerance_k, cfg.margin_h
    valid = valid_range(n_time, h)
    total = SoftConfusion()
    counts = [0] * (k + 1)
    n_windows = 0
    for events, detections in window_sets:
        full = associate(events, detections, k)
        kept_events, kept_detections = restrict(full, valid)
        scored = associate(kept_events, kept_detections, k)
        total += confusion_from_assignment(scored, n_time - 2 * h)
        for _, _, mu in scored.pairs:
            counts[_bucket_index(mu, k)] += 1
        # pairs are one-to-one, so every other restricted entity is unmatched
        counts[0] += len(scored.events) + len(scored.detections) - 2 * len(scored.pairs)
        n_windows += 1
    return WindowedEvaluation(
        confusion=total,
        metrics=soft_metrics(total),
        histogram=np.array(counts, dtype=np.int64),
        n_windows=n_windows,
        k=k,
        h=h,
    )


# --- report files -------------------------------------------------------------

def metrics_payload(result: WindowedEvaluation) -> dict:
    c = result.confusion
    return {**asdict(result.metrics), "tp_s": c.tp_s, "fp_s": c.fp_s, "fn_s": c.fn_s, "tn_s": c.tn_s,
            "n_windows": result.n_windows, "k": result.k, "h": result.h}


def write_metrics_json(result: WindowedEvaluation, path) -> None:
    Path(path).write_text(json.dumps(metrics_payload(result), sort_keys=True, indent=2) + "\n")


def histogram_rows(result: WindowedEvaluation) -> list:
    """(bucket_low, bucket_high, count) rows; the final [1, 1] bucket holds exact hits."""
    k = result.k
    rows = [(j / k, (j + 1) / k, int(result.histogram[j])) for j in range(k)]
    rows.append((1.0, 1.0, int(result.histogram[k])))
    return rows


def write_histogram_csv(result: WindowedEvaluation, path) -> None:
    lines = ["bucket_low,bucket_high,count"]
    lines.extend(f"{lo!r},{hi!r},{count}" for lo, hi, count in histogram_rows(result))
    Path(path).write_text("\n".join(lines) + "\n")
