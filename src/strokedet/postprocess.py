"""Model output -> discrete detections: smoothing, thresholds, extrema, clustering.

The raw regression output is smoothed with a second-order Savitzky-Golay
filter, thresholded at the 85th percentile of its positive values (onsets) and
the 15th percentile of its negative values (endings), reduced to strict local
extrema, and finally clustered so that near-duplicate detections collapse to
the strongest one.

Both kinds come from one search over the runs of equal values: a run whose
two neighbours are both lower is a maximum (an onset candidate), one whose two
neighbours are both higher a minimum (an ending candidate), each at its
lower-half midpoint, and a run touching either end of the signal never counts.
Both thresholds come from one ascending sort of the window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .labels import ENDING, KIND_SIGNS, ONSET, jsonl_records, record_event


@dataclass(frozen=True)
class Detection:
    """A detected event: sample index, kind, and the filtered output value there."""

    t: int
    kind: str
    score: float


_BY_T = attrgetter("t")


@dataclass
class ExtractorConfig:
    sg_window: int = 31
    sg_order: int = 2
    upper_percentile: float = 85.0
    lower_percentile: float = 15.0
    cluster_radius: int = 5

    def __post_init__(self):
        if self.sg_window % 2 != 1 or self.sg_window <= self.sg_order:
            raise ConfigError(
                f"sg_window must be odd and greater than sg_order, got {self.sg_window}/{self.sg_order}"
            )
        if self.sg_order < 0:
            raise ConfigError(f"sg_order must be >= 0, got {self.sg_order}")
        for pct in (self.upper_percentile, self.lower_percentile):
            if not 0.0 < pct < 100.0:
                raise ConfigError(f"percentiles must lie in (0, 100), got {pct}")
        if self.cluster_radius < 0:
            raise ConfigError(f"cluster_radius must be >= 0, got {self.cluster_radius}")


def _fit_coefficients(n_points: int, order: int, pos: int) -> np.ndarray:
    """Row c with (least-squares poly fit of y over n points, evaluated at pos) = c @ y."""
    offsets = np.arange(n_points, dtype=np.float64) - pos
    design = np.vander(offsets, N=order + 1, increasing=True)
    return np.linalg.pinv(design)[0]


@lru_cache(maxsize=None)
def _savgol_rows(window: int, order: int) -> tuple:
    """(centre row, left-edge rows, right-edge rows) of one filter.

    Left-edge row i fits the first i + half + 1 samples at position i; right-edge
    row j fits the last 2 * half - j samples at their position half.
    """
    half = window // 2
    left = tuple(_fit_coefficients(i + half + 1, order, i) for i in range(half))
    right = tuple(_fit_coefficients(2 * half - j, order, half) for j in range(half))
    return _fit_coefficients(window, order, half), left, right


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
    center, left, right = _savgol_rows(window, order)
    out = np.empty(n)
    out[half:n - half] = np.correlate(x, center, mode="valid")
    # ndarray.dot of two 1-D float64 arrays runs the same dot kernel as `@`,
    # with less call overhead
    out[:half] = [row.dot(x[:row.size]) for row in left]
    out[n - half:] = [row.dot(x[n - row.size:]) for row in right]
    return out


def _sorted_percentile(xs: np.ndarray, p: float) -> float:
    """`np.percentile(xs, p)` of a non-empty ascending array, bit for bit: numpy's
    linear-method arithmetic on the two samples around rank (n - 1) * p / 100.
    From rank n - 1 up, numpy takes the last sample twice, with weight rank + 1."""
    n = xs.size
    rank = (n - 1) * (p / 100)
    if rank >= n - 1:
        i, j, g = n - 1, n - 1, rank + 1
    else:
        i = math.floor(rank)
        j, g = i + 1, rank - i
    a, b = float(xs[i]), float(xs[j])
    if g >= 0.5:
        return b - (b - a) * (1 - g)
    return a + (b - a) * g


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile over the ascending sort."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise DataError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ConfigError(f"percentile rank must be in [0, 100], got {p}")
    return _sorted_percentile(np.sort(x, axis=None), p)


def extract_candidates(filtered, cfg: ExtractorConfig) -> list:
    """Local maxima strictly above the positive-value threshold become onsets;
    local minima strictly below the negative-value threshold become endings.

    A window with no positive (negative) values simply yields no onsets
    (endings)."""
    x = np.asarray(filtered, dtype=np.float64)
    xs = np.sort(x)
    # the sort puts -inf first and +inf and nan last
    if x.size and not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise NumericError("non-finite values in filtered output")
    neg, pos = xs.searchsorted(0.0, "left"), xs.searchsorted(0.0, "right")
    upper = _sorted_percentile(xs[pos:], cfg.upper_percentile) if pos < x.size else math.inf
    lower = _sorted_percentile(xs[:neg], cfg.lower_percentile) if neg else -math.inf
    # runs of equal values: edge holds the last sample of each run but the final one
    edge = np.flatnonzero(x[1:] != x[:-1])
    start, end = edge[:-1] + 1, edge[1:]
    rise = x[start - 1] < x[start]  # neighbours differ from the run, so False means higher
    fall = x[end + 1] < x[end]
    t = (start + end) // 2
    v = x[t]
    onset = rise & fall & (v > upper)
    keep = np.flatnonzero(onset | (~(rise | fall) & (v < lower)))
    return [Detection(ti, ONSET if o else ENDING, s)
            for ti, o, s in zip(t[keep].tolist(), onset[keep].tolist(), v[keep].tolist())]


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
    for kind in KIND_SIGNS:
        group = []
        chain = sorted((d for d in detections if d.kind == kind), key=_BY_T)
        for det in chain:
            if group and det.t - group[-1].t > radius:
                result.append(_representative(group))
                group = []
            group.append(det)
        if group:
            result.append(_representative(group))
    return sorted(result, key=_BY_T)


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
            current[1].append(Detection(*record_event(path, n, obj, "detection"), float(obj["score"])))
        except KeyError as exc:
            raise DataError(f"{path}: line {n}: detection record missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: line {n}: malformed detection record: {exc}") from exc
    return groups
