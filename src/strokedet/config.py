"""Plain-text `key = value` pipeline configuration.

One flat namespace covers every stage (windowing, label encoding, model,
training, event extraction, scoring, synthesis). Unknown keys are rejected.
`#` starts a comment; CLI `--set key=value` overrides file values.

Defaults (also the documented reference):

    window_length         1000    samples per window
    window_stride         100     window advance in samples
    label_kernel_window   100     Gaussian smoothing support (widened to odd)
    label_sigma           10.0    Gaussian smoothing std dev in samples
    arch                  gruc1   one of the eight architecture names
    learning_rate         0.001
    epochs                30
    batch_size            32
    optimizer             adam    adam | sgd
    seed                  0       drives synthesis, split, init, shuffling
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
from .postprocess import ExtractorConfig
from .softed import WindowEvalConfig
from .synth import SynthConfig
from .training import TrainConfig


@dataclass
class PipelineConfig:
    window_length: int = 1000
    window_stride: int = 100
    label_kernel_window: int = 100
    label_sigma: float = 10.0
    arch: str = "gruc1"
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    optimizer: str = "adam"
    seed: int = 0
    n_folds: int = 5
    holdout_fraction: float = 0.15
    val_fold: int = 0
    sg_window: int = 31
    sg_order: int = 2
    upper_percentile: float = 85.0
    lower_percentile: float = 15.0
    cluster_radius: int = 5
    tolerance_k: int = 15
    margin_h: int = 15
    n_athletes: int = 7
    runs_per_athlete: int = 2
    run_duration: float = 30.0
    stroke_rate_min: float = 40.0
    stroke_rate_max: float = 120.0
    pulse_asymmetry_min: float = 0.2
    pulse_asymmetry_max: float = 0.5
    amplitude_jitter: float = 0.1
    baseline_noise: float = 0.02
    dropout_prob: float = 0.002

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
            optimizer=self.optimizer,
        )

    def extractor_config(self) -> ExtractorConfig:
        return ExtractorConfig(
            sg_window=self.sg_window,
            sg_order=self.sg_order,
            upper_pct=self.upper_percentile,
            lower_pct=self.lower_percentile,
            cluster_radius=self.cluster_radius,
        )

    def eval_config(self) -> WindowEvalConfig:
        return WindowEvalConfig(k=self.tolerance_k, h=self.margin_h)

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_athletes=self.n_athletes,
            runs_per_athlete=self.runs_per_athlete,
            run_duration=self.run_duration,
            stroke_rate_range=(self.stroke_rate_min, self.stroke_rate_max),
            pulse_asymmetry_range=(self.pulse_asymmetry_min, self.pulse_asymmetry_max),
            amplitude_jitter=self.amplitude_jitter,
            baseline_noise=self.baseline_noise,
            dropout_prob=self.dropout_prob,
            seed=self.seed,
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(PipelineConfig)}


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        value = {"int": int, "float": float}.get(kind, str)(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from exc
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"config key {key}: {raw!r} is not a finite number")
    return value


def apply_setting(cfg: PipelineConfig, key: str, raw: str) -> None:
    key = key.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    setattr(cfg, key, _convert(key, raw.strip()))


def load_config(path=None, overrides=()) -> PipelineConfig:
    """Defaults, then file values, then `key=value` override strings."""
    cfg = PipelineConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, raw = stripped.split("=", 1)
            apply_setting(cfg, key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply_setting(cfg, key, raw)
    return cfg
