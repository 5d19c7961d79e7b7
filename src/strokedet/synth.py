"""Synthetic paddle-force runs with construction-known onset/ending events.

Each athlete gets a fixed style (stroke rate, rise fraction, duty cycle, base
amplitude); each run is sampled at the fixed 200 Hz (`runs.SAMPLE_RATE_HZ`),
sums one asymmetric raised-cosine pulse per stroke period and adds baseline
noise. The ground-truth onset (ending) of a stroke is the first (last) sample
where that pulse's own values exceed 5% of its amplitude, exactly known to the
generator. So these labels are analytically defined, unlike the paper's expert
labels: pulses do not overlap, and an untuned threshold rule on the smoothed
signal recovers most of them (ROADMAP item 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .labels import ENDING, ONSET, EventLabel
from .runs import BOAT_TYPES, SAMPLE_RATE_HZ, RawRun

GROUND_TRUTH_LEVEL = 0.05

DUTY_RANGE = (0.45, 0.7)
AMPLITUDE_RANGE = (0.8, 1.2)


@dataclass
class SynthConfig:
    n_athletes: int = 7
    runs_per_athlete: int = 2
    run_duration: float = 30.0  # seconds
    stroke_rate_min: float = 40.0  # strokes/min
    stroke_rate_max: float = 120.0
    pulse_asymmetry_min: float = 0.2  # rise fraction of pulse duration
    pulse_asymmetry_max: float = 0.5
    amplitude_jitter: float = 0.1  # relative sigma per stroke
    baseline_noise: float = 0.02  # absolute sigma
    dropout_prob: float = 0.002  # per-sample invalidation probability
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.stroke_rate_min <= self.stroke_rate_max:
            raise ConfigError(f"invalid stroke rate range {self.stroke_rate_min}..{self.stroke_rate_max}")
        if not 0 < self.pulse_asymmetry_min <= self.pulse_asymmetry_max < 1:
            raise ConfigError(f"invalid asymmetry range {self.pulse_asymmetry_min}..{self.pulse_asymmetry_max}")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ConfigError(f"dropout_prob must be in [0, 1], got {self.dropout_prob}")
        if self.amplitude_jitter < 0 or self.baseline_noise < 0:
            raise ConfigError("jitter and noise sigmas must be >= 0")
        if self.n_athletes < 1 or self.runs_per_athlete < 1 or self.run_duration <= 0:
            raise ConfigError("athlete/run counts and duration must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class AthleteStyle:
    athlete_id: str
    stroke_rate: float
    rise_fraction: float
    duty: float
    amplitude: float
    boat_type: str


@dataclass
class SynthRun:
    run: RawRun
    events: list  # run-relative EventLabels, strictly alternating onset/ending
    style: AthleteStyle


def draw_style(athlete_id: str, cfg: SynthConfig, rng: np.random.Generator) -> AthleteStyle:
    return AthleteStyle(
        athlete_id=athlete_id,
        stroke_rate=float(rng.uniform(cfg.stroke_rate_min, cfg.stroke_rate_max)),
        rise_fraction=float(rng.uniform(cfg.pulse_asymmetry_min, cfg.pulse_asymmetry_max)),
        duty=float(rng.uniform(*DUTY_RANGE)),
        amplitude=float(rng.uniform(*AMPLITUDE_RANGE)),
        boat_type=str(rng.choice(BOAT_TYPES)),
    )


def _pulse_shape(n_rise: int, n_fall: int) -> np.ndarray:
    """Raised cosine rising over n_rise samples and decaying over n_fall."""
    rise = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_rise + 1) / n_rise))
    fall = 0.5 * (1.0 + np.cos(np.pi * np.arange(1, n_fall + 1) / n_fall))
    return np.concatenate([rise, fall])


def generate_run(cfg: SynthConfig, style: AthleteStyle, rng: np.random.Generator,
                 run_id: str) -> SynthRun:
    n = int(round(cfg.run_duration * SAMPLE_RATE_HZ))
    period = SAMPLE_RATE_HZ * 60.0 / style.stroke_rate
    duration = max(4, int(round(style.duty * period)))
    n_rise = max(1, int(round(style.rise_fraction * duration)))
    n_fall = max(1, duration - n_rise)
    shape = _pulse_shape(n_rise, n_fall)

    starts = []
    while (start := int(round(len(starts) * period))) + shape.size <= n:
        starts.append(start)
    jitter = rng.standard_normal(len(starts))  # the stream of one draw per stroke
    amplitudes = style.amplitude * np.maximum(0.1, 1.0 + cfg.amplitude_jitter * jitter)
    pulses = amplitudes[:, None] * shape
    signal = np.zeros(n)
    for start, pulse in zip(starts, pulses):  # pulses can overlap at extreme stroke rates
        signal[start:start + shape.size] += pulse
    above = pulses > GROUND_TRUTH_LEVEL * amplitudes[:, None]
    if not above.any(axis=1).all():
        raise ConfigError(f"style {style.athlete_id}: amplitude {style.amplitude} leaves a pulse "
                          f"with no sample above {GROUND_TRUTH_LEVEL} of its amplitude")
    first = above.argmax(axis=1).tolist()
    last = (shape.size - 1 - above[:, ::-1].argmax(axis=1)).tolist()
    events = []
    for start, on, off in zip(starts, first, last):
        events += (EventLabel(t=start + on, kind=ONSET), EventLabel(t=start + off, kind=ENDING))

    if cfg.baseline_noise > 0:
        signal = signal + cfg.baseline_noise * rng.standard_normal(n)

    for prev, nxt in zip(events, events[1:]):
        if nxt.t <= prev.t:
            raise ConfigError(
                f"style {style.athlete_id} produced non-alternating events; "
                "stroke rate and duty are inconsistent"
            )
    run = RawRun(
        run_id=run_id,
        athlete_id=style.athlete_id,
        boat_type=style.boat_type,
        force=signal,
        valid=np.ones(n, dtype=bool),
    )
    return SynthRun(run=run, events=events, style=style)


def inject_dropouts(run: RawRun, dropout_prob: float, rng: np.random.Generator) -> RawRun:
    """Invalidate samples independently; always leaves at least one valid sample."""
    if not 0.0 <= dropout_prob <= 1.0:
        raise ConfigError(f"dropout_prob must be in [0, 1], got {dropout_prob}")
    if dropout_prob == 0.0:
        return run
    drop = rng.random(len(run)) < dropout_prob
    if drop.all():
        drop[len(run) // 2] = False
    return RawRun(
        run_id=run.run_id,
        athlete_id=run.athlete_id,
        boat_type=run.boat_type,
        force=run.force,
        valid=run.valid & ~drop,
    )


def generate_dataset(cfg: SynthConfig) -> list:
    """n_athletes x runs_per_athlete runs; a pure function of the config."""
    root = np.random.SeedSequence(cfg.seed)
    athlete_seqs = root.spawn(cfg.n_athletes)
    dataset = []
    for i, athlete_seq in enumerate(athlete_seqs):
        children = athlete_seq.spawn(cfg.runs_per_athlete + 1)
        style = draw_style(f"a{i:02d}", cfg, np.random.default_rng(children[0]))
        for j in range(cfg.runs_per_athlete):
            rng = np.random.default_rng(children[j + 1])
            synth_run = generate_run(cfg, style, rng, run_id=f"{i:02d}x{j:02d}")
            if cfg.dropout_prob > 0:
                synth_run.run = inject_dropouts(synth_run.run, cfg.dropout_prob, rng)
            dataset.append(synth_run)
    return dataset
