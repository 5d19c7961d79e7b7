"""Sparse expert events <-> dense regression targets.

Events are encoded as a ternary impulse vector (+1 stroke onset, -1 stroke
ending, 0 elsewhere) and smoothed with a peak-normalized truncated Gaussian so
the regression target keeps +/-1 at the event samples. Decoding model outputs
back to events lives in `postprocess`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

ONSET = "onset"
ENDING = "ending"
KIND_SIGNS = {ONSET: 1.0, ENDING: -1.0}

DEFAULT_KERNEL_WINDOW = 100
DEFAULT_SIGMA = 10.0


@dataclass(frozen=True)
class EventLabel:
    """An expert-labeled event at sample index t within its frame."""

    t: int
    kind: str

    def __post_init__(self):
        if self.kind not in KIND_SIGNS:
            raise DataError(f"unknown event kind {self.kind!r}")


def encode_ternary(events, length: int = 1000) -> np.ndarray:
    """Impulse vector: +1 at onsets, -1 at endings, 0 elsewhere.

    Duplicate indices with conflicting kinds are rejected; duplicates of the
    same kind collapse into one impulse.
    """
    values = np.zeros(length, dtype=np.float64)
    seen = {}
    for ev in events:
        if not 0 <= ev.t < length:
            raise DataError(f"event index {ev.t} outside [0, {length})")
        if ev.t in seen and seen[ev.t] != ev.kind:
            raise DataError(f"conflicting event kinds at index {ev.t}")
        seen[ev.t] = ev.kind
        values[ev.t] = KIND_SIGNS[ev.kind]
    return values


def gaussian_kernel(window: int = DEFAULT_KERNEL_WINDOW, sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """Truncated Gaussian with peak value exactly 1 at its center sample.

    An even `window` is widened by one sample so the kernel stays symmetric
    about an on-grid center (window=100 -> 101 taps, center +/- 50).
    """
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if window < 1:
        raise ConfigError(f"kernel window must be >= 1, got {window}")
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    return np.exp(-0.5 * (offsets / sigma) ** 2)


def gaussian_smooth(values, kernel_window: int = DEFAULT_KERNEL_WINDOW, sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    """Convolve with the peak-normalized kernel; boundaries are zero-padded,
    and the output has the input's length and alignment, even when the input
    is shorter than the kernel.

    Overlapping event tails add linearly (no clipping), so smoothing is exactly
    linear in its input.
    """
    x = np.asarray(values, dtype=np.float64)
    half = kernel_window // 2
    return np.convolve(x, gaussian_kernel(kernel_window, sigma), "full")[half:half + len(x)]


def smooth_events(events, length: int, kernel_window: int = DEFAULT_KERNEL_WINDOW,
                  sigma: float = DEFAULT_SIGMA) -> np.ndarray:
    return gaussian_smooth(encode_ternary(events, length), kernel_window, sigma)


# --- event files (JSON Lines) -----------------------------------------------

def write_events_jsonl(path, events) -> None:
    """Header record {"frame": "run"} followed by one {"t", "kind"} object per
    event, t counted from the start of the run."""
    lines = [json.dumps({"frame": "run"})]
    lines.extend(json.dumps({"t": int(ev.t), "kind": ev.kind}) for ev in events)
    Path(path).write_text("\n".join(lines) + "\n")


def jsonl_records(path) -> list:
    """(line number, object) for each non-blank line; malformed input is a DataError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not readable UTF-8 text: {exc}") from exc
    records = []
    for n, ln in enumerate(text.splitlines(), 1):
        if not ln.strip():
            continue
        try:
            obj = json.loads(ln)
        except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting too
            raise DataError(f"{path}: line {n}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {n}: expected a JSON object, got {ln.strip()[:40]!r}")
        records.append((n, obj))
    return records


def record_event(path, n: int, obj: dict, what: str) -> tuple:
    """(t, kind) of the event or detection record on line `n`: a JSON integer
    and a known kind, else a DataError naming the line."""
    t, kind = obj["t"], obj["kind"]
    if type(t) is not int or kind not in KIND_SIGNS:
        raise DataError(f"{path}: line {n}: {what} needs an integer t and a known kind, "
                        f"got t={t!r}, kind={kind!r}")
    return t, kind


def read_events_jsonl(path) -> list:
    """[EventLabel, ...] of a file that `write_events_jsonl` wrote."""
    records = jsonl_records(path)
    if not records:
        raise DataError(f"{path}: empty event file")
    frame = records[0][1].get("frame")
    if frame != "run":
        raise DataError(f"{path}: first record must declare frame 'run', got {frame!r}")
    events = []
    for n, obj in records[1:]:
        try:
            events.append(EventLabel(*record_event(path, n, obj, "event")))
        except KeyError as exc:
            raise DataError(f"{path}: line {n}: event record missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: line {n}: malformed event record: {exc}") from exc
    return events
