"""Plain-text `key = value` pipeline configuration.

One flat namespace covers every stage (windowing, label encoding, model,
training, event extraction, scoring, synthesis). `PipelineConfig` inherits
the keys, defaults and checks of the four stage configs (`TrainConfig`,
`ExtractorConfig`, `WindowEvalConfig`, `SynthConfig`) and adds the window,
label, model and split keys. Unknown keys are rejected, and the stage keys
are checked when the config is loaded. `#` starts a comment; CLI
`--set key=value` overrides file values.

Defaults (the one documented reference; a test keeps it equal to the code):

    window_length         1000    samples per window
    window_stride         100     window advance in samples
    label_kernel_window   100     Gaussian smoothing support (widened to odd)
    label_sigma           10.0    Gaussian smoothing std dev in samples
    arch                  gruc1   one of the eight architecture names
    learning_rate         0.001
    epochs                30
    batch_size            32
    optimizer             adam    adam | sgd
    seed                  0       drives synthesis, split, init, shuffling (>= 0)
    n_folds               5       cross-validation folds
    holdout_fraction      0.15    athlete fraction held out (ceil)
    val_fold              0       fold used for validation loss during train
    sg_window             31      Savitzky-Golay window (odd)
    sg_order              2       Savitzky-Golay polynomial order
    upper_percentile      85.0    onset threshold over positive outputs
    lower_percentile      15.0    ending threshold over negative outputs
    cluster_radius        5       detection grouping radius in samples
    tolerance_k           15      soft-scoring tolerance in samples
    margin_h              15      excluded margin per window end in samples
    n_athletes            7
    runs_per_athlete      2
    run_duration          30.0    seconds per synthetic run
    stroke_rate_min       40.0    strokes/min
    stroke_rate_max       120.0
    pulse_asymmetry_min   0.2     pulse rise fraction
    pulse_asymmetry_max   0.5
    amplitude_jitter      0.1     relative per-stroke amplitude sigma
    baseline_noise        0.02    absolute noise sigma
    dropout_prob          0.002   per-sample invalidation probability
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .labels import DEFAULT_KERNEL_WINDOW, DEFAULT_SIGMA
from .postprocess import ExtractorConfig
from .softed import WindowEvalConfig
from .synth import SynthConfig
from .training import TrainConfig

_STAGES = (TrainConfig, ExtractorConfig, WindowEvalConfig, SynthConfig)


@dataclass
class PipelineConfig(*_STAGES):
    """Every stage config's keys, plus the windowing, label, model and split keys."""

    window_length: int = 1000
    window_stride: int = 100
    label_kernel_window: int = DEFAULT_KERNEL_WINDOW
    label_sigma: float = DEFAULT_SIGMA
    arch: str = "gruc1"
    n_folds: int = 5
    holdout_fraction: float = 0.15
    val_fold: int = 0

    def __post_init__(self):
        for stage in _STAGES:
            stage.__post_init__(self)

    def _stage(self, stage):
        return stage(**{f.name: getattr(self, f.name) for f in fields(stage)})

    def train_config(self) -> TrainConfig:
        return self._stage(TrainConfig)

    def extractor_config(self) -> ExtractorConfig:
        return self._stage(ExtractorConfig)

    def eval_config(self) -> WindowEvalConfig:
        return self._stage(WindowEvalConfig)

    def synth_config(self) -> SynthConfig:
        return self._stage(SynthConfig)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(PipelineConfig)}


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _setting(key: str, raw: str) -> tuple:
    """(key, value) of one `key = value` setting, parsed by the key's type."""
    key, raw = key.strip(), raw.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        value = {"int": int, "float": float}.get(kind, str)(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from exc
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"config key {key}: {raw!r} is not a finite number")
    return key, value


def load_config(path=None, overrides=()) -> PipelineConfig:
    """Defaults, then file values, then `key=value` override strings. The
    config is built once from the collected settings, running every stage's checks."""
    items = []
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            items.append(stripped)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        items.append(item)
    return PipelineConfig(**dict(_setting(*item.split("=", 1)) for item in items))
