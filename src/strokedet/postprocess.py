"""Model output -> discrete detections: smoothing, thresholds, extrema, clustering.

The raw regression output is smoothed with a second-order Savitzky-Golay
filter, thresholded at the 85th percentile of its positive values (onsets) and
the 15th percentile of its negative values (endings), reduced to strict local
extrema, and finally clustered so that near-duplicate detections collapse to
the strongest one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .labels import ENDING, ONSET, jsonl_records


@dataclass(frozen=True)
class Detection:
    """A detected event: sample index, kind, and the filtered output value there."""

    t: int
    kind: str
    score: float


@dataclass
class ExtractorConfig:
    sg_window: int = 31
    sg_order: int = 2
    upper_pct: float = 85.0
    lower_pct: float = 15.0
    cluster_radius: int = 5

    def __post_init__(self):
        if self.sg_window % 2 != 1 or self.sg_window <= self.sg_order:
            raise ConfigError(
                f"sg_window must be odd and greater than sg_order, got {self.sg_window}/{self.sg_order}"
            )
        if self.sg_order < 0:
            raise ConfigError(f"sg_order must be >= 0, got {self.sg_order}")
        for pct in (self.upper_pct, self.lower_pct):
            if not 0.0 < pct < 100.0:
                raise ConfigError(f"percentiles must lie in (0, 100), got {pct}")
        if self.cluster_radius < 0:
            raise ConfigError(f"cluster_radius must be >= 0, got {self.cluster_radius}")


@lru_cache(maxsize=None)
def _fit_coefficients(n_points: int, order: int, pos: int) -> np.ndarray:
    """Row c with (least-squares poly fit of y over n points, evaluated at pos) = c @ y."""
    offsets = np.arange(n_points, dtype=np.float64) - pos
    design = np.vander(offsets, N=order + 1, increasing=True)
    return np.linalg.pinv(design)[0]


def savgol_filter(signal, window: int, order: int = 2) -> np.ndarray:
    """Least-squares polynomial smoothing.

    Interior samples use the symmetric convolution coefficients. Boundary
    samples refit the polynomial to the window truncated at the signal edge
    (no padding), which keeps exact reproduction of polynomials up to `order`
    everywhere.
    """
    if window % 2 != 1 or window < 1:
        raise ConfigError(f"window must be odd and positive, got {window}")
    if order >= window:
        raise ConfigError(f"order {order} must be smaller than window {window}")
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if n < window:
        raise DataError(f"signal length {n} is shorter than the filter window {window}")
    half = window // 2
    out = np.empty(n)
    center = _fit_coefficients(window, order, half)
    out[half:n - half] = np.correlate(x, center, mode="valid")
    for i in range(half):
        out[i] = _fit_coefficients(i + half + 1, order, i) @ x[:i + half + 1]
    for i in range(n - half, n):
        seg = x[i - half:]
        out[i] = _fit_coefficients(seg.size, order, half) @ seg
    return out


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile over the ascending sort."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise DataError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ConfigError(f"percentile rank must be in [0, 100], got {p}")
    return float(np.percentile(x, p))


def _local_extrema(x: np.ndarray, find_maxima: bool) -> list:
    """Indices of strict local extrema; plateaus yield their midpoint (lower half).

    The first and last samples never qualify, including plateaus touching them.
    """
    n = x.size
    extrema = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        if i > 0 and j < n - 1:
            if find_maxima:
                is_ext = x[i - 1] < x[i] and x[j + 1] < x[i]
            else:
                is_ext = x[i - 1] > x[i] and x[j + 1] > x[i]
            if is_ext:
                extrema.append((i + j) // 2)
        i = j + 1
    return extrema


def extract_candidates(filtered, cfg: ExtractorConfig) -> list:
    """Local maxima strictly above the positive-value threshold become onsets;
    local minima strictly below the negative-value threshold become endings.

    A window with no positive (negative) values simply yields no onsets
    (endings)."""
    x = np.asarray(filtered, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NumericError("non-finite values in filtered output")
    detections = []
    positives = x[x > 0.0]
    if positives.size:
        upper = percentile(positives, cfg.upper_pct)
        detections.extend(
            Detection(t, ONSET, float(x[t]))
            for t in _local_extrema(x, find_maxima=True)
            if x[t] > upper
        )
    negatives = x[x < 0.0]
    if negatives.size:
        lower = percentile(negatives, cfg.lower_pct)
        detections.extend(
            Detection(t, ENDING, float(x[t]))
            for t in _local_extrema(x, find_maxima=False)
            if x[t] < lower
        )
    return sorted(detections, key=lambda d: (d.t, d.kind))


def cluster_detections(detections, radius: int = 5) -> list:
    """Group same-kind detections chained within `radius` samples; keep the
    strongest per group.

    The representative is the member with maximal |score|; on exact score ties
    the representative time is the rounded temporal average of the tied
    members (halves round toward the earlier sample). Opposite kinds never
    merge. Output gaps per kind exceed `radius`, so clustering is idempotent.
    """
    if radius < 0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    result = []
    for kind in (ONSET, ENDING):
        group = []
        chain = sorted((d for d in detections if d.kind == kind), key=lambda d: d.t)
        for det in chain:
            if group and det.t - group[-1].t > radius:
                result.append(_representative(group))
                group = []
            group.append(det)
        if group:
            result.append(_representative(group))
    return sorted(result, key=lambda d: d.t)


def _representative(group) -> Detection:
    best = max(abs(d.score) for d in group)
    tied = [d for d in group if abs(d.score) == best]
    if len(tied) == 1:
        return tied[0]
    mean_t = sum(d.t for d in tied) / len(tied)
    return Detection(int(math.ceil(mean_t - 0.5)), tied[0].kind, tied[0].score)


def extract_events(raw_output, cfg: ExtractorConfig | None = None) -> list:
    """Full pipeline: Savitzky-Golay filter -> thresholded extrema -> clustering."""
    cfg = cfg or ExtractorConfig()
    filtered = savgol_filter(raw_output, cfg.sg_window, cfg.sg_order)
    return cluster_detections(extract_candidates(filtered, cfg), cfg.cluster_radius)


# --- detections file (JSON Lines, one header record per source window) -------

def write_detections_jsonl(path, groups) -> None:
    """`groups` is an iterable of (window_name, detections)."""
    lines = []
    for window_name, detections in groups:
        lines.append(json.dumps({"window": window_name}))
        lines.extend(
            json.dumps({"t": int(d.t), "kind": d.kind, "score": float(d.score)})
            for d in detections
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_detections_jsonl(path):
    groups = []
    current = None
    for n, obj in jsonl_records(path):
        if "window" in obj:
            current = (obj["window"], [])
            groups.append(current)
            continue
        if current is None:
            raise DataError(f"{path}: detection record before any window header")
        try:
            current[1].append(Detection(int(obj["t"]), obj["kind"], float(obj["score"])))
        except KeyError as exc:
            raise DataError(f"{path}: line {n}: detection record missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: line {n}: malformed detection record: {exc}") from exc
    return groups
