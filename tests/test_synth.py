import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet.errors import ConfigError
from strokedet.labels import ENDING, ONSET, EventLabel
from strokedet.runs import SAMPLE_RATE_HZ
from strokedet.synth import (
    GROUND_TRUTH_LEVEL,
    AthleteStyle,
    SynthConfig,
    _pulse_shape,
    draw_style,
    generate_dataset,
    generate_run,
    inject_dropouts,
)


def fixed_style(rate=60.0, rise=0.3, duty=0.6, amplitude=1.0):
    return AthleteStyle(athlete_id="a00", stroke_rate=rate, rise_fraction=rise,
                        duty=duty, amplitude=amplitude, boat_type="canoe")


class TestGenerateRun:
    def test_fixed_rate_exact_spacing(self):
        cfg = SynthConfig(run_duration=10.0, baseline_noise=0.0, amplitude_jitter=0.0,
                          dropout_prob=0.0, stroke_rate_min=60.0, stroke_rate_max=60.0)
        run = generate_run(cfg, fixed_style(rate=60.0), np.random.default_rng(0), "r0")
        onsets = [e.t for e in run.events if e.kind == ONSET]
        assert len(onsets) == 10
        assert all(b - a == 200 for a, b in zip(onsets, onsets[1:]))

    def test_deterministic_given_seed(self):
        cfg = SynthConfig(run_duration=5.0)
        a = generate_run(cfg, fixed_style(), np.random.default_rng(42), "r0")
        b = generate_run(cfg, fixed_style(), np.random.default_rng(42), "r0")
        np.testing.assert_array_equal(a.run.force, b.run.force)
        assert a.events == b.events

    def test_zero_jitter_equal_peaks(self):
        cfg = SynthConfig(run_duration=8.0, amplitude_jitter=0.0, baseline_noise=0.0)
        run = generate_run(cfg, fixed_style(), np.random.default_rng(1), "r0")
        onsets = [e.t for e in run.events if e.kind == ONSET]
        peaks = [run.run.force[a:b].max() for a, b in zip(onsets, onsets[1:])]
        assert max(peaks) - min(peaks) < 1e-12

    def test_events_alternate_and_bracket_pulses(self):
        cfg = SynthConfig(run_duration=12.0, baseline_noise=0.0)
        run = generate_run(cfg, fixed_style(rate=90.0, duty=0.65), np.random.default_rng(2), "r0")
        kinds = [e.kind for e in run.events]
        assert kinds == [ONSET, ENDING] * (len(kinds) // 2)
        ts = [e.t for e in run.events]
        assert ts == sorted(ts)
        assert all(0 <= t < len(run.run) for t in ts)
        # the signal between onset and ending stays above 5% of the pulse peak
        for on, off in zip(run.events[::2], run.events[1::2]):
            segment = run.run.force[on.t:off.t + 1]
            assert segment.min() > 0.0

    def test_signal_nonnegative_without_noise(self):
        cfg = SynthConfig(run_duration=6.0, baseline_noise=0.0)
        run = generate_run(cfg, fixed_style(), np.random.default_rng(3), "r0")
        assert run.run.force.min() >= 0.0
        assert np.isfinite(run.run.force).all()


def reference_generate_run(cfg, style, rng):
    """The per-stroke loop `generate_run` replaced: one scalar amplitude draw
    and one threshold scan per stroke. Returns (force, events)."""
    n = int(round(cfg.run_duration * SAMPLE_RATE_HZ))
    period = SAMPLE_RATE_HZ * 60.0 / style.stroke_rate
    duration = max(4, int(round(style.duty * period)))
    n_rise = max(1, int(round(style.rise_fraction * duration)))
    shape = _pulse_shape(n_rise, max(1, duration - n_rise))
    signal = np.zeros(n)
    events = []
    stroke = 0
    while True:
        start = int(round(stroke * period))
        if start + shape.size > n:
            break
        amplitude = style.amplitude * max(0.1, 1.0 + cfg.amplitude_jitter * rng.standard_normal())
        pulse = amplitude * shape
        signal[start:start + shape.size] += pulse
        above = np.flatnonzero(pulse > GROUND_TRUTH_LEVEL * amplitude)
        if not above.size:  # a subnormal amplitude rounds the level to zero
            raise ConfigError("no sample above")
        events.append(EventLabel(t=start + int(above[0]), kind=ONSET))
        events.append(EventLabel(t=start + int(above[-1]), kind=ENDING))
        stroke += 1
    if cfg.baseline_noise > 0:
        signal = signal + cfg.baseline_noise * rng.standard_normal(n)
    if any(nxt.t <= prev.t for prev, nxt in zip(events, events[1:])):
        raise ConfigError("non-alternating")
    return signal, events


class TestReference:
    @settings(max_examples=150, deadline=None)
    @given(rate=st.floats(20.0, 2000.0), rise=st.floats(0.01, 0.99), duty=st.floats(0.1, 1.5),
           amplitude=st.floats(-2.0, 2.0).filter(lambda a: a != 0.0),
           jitter=st.floats(0.0, 3.0), noise=st.sampled_from([0.0, 0.02]),
           duration=st.floats(0.01, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_stroke_reference(self, rate, rise, duty, amplitude, jitter, noise,
                                              duration, seed):
        # rates past ~600 strokes/min and duties near 1.5 overlap the pulses
        cfg = SynthConfig(run_duration=duration, amplitude_jitter=jitter, baseline_noise=noise,
                          stroke_rate_min=rate, stroke_rate_max=rate,
                          pulse_asymmetry_min=rise, pulse_asymmetry_max=rise)
        style = fixed_style(rate=rate, rise=rise, duty=duty, amplitude=amplitude)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            force, events = reference_generate_run(cfg, style, theirs)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=str(exc)):
                generate_run(cfg, style, ours, "r0")
            return
        run = generate_run(cfg, style, ours, "r0")
        assert run.run.force.tobytes() == force.tobytes()
        assert run.run.valid.all() and len(run.run) == force.size
        assert repr(run.events) == repr(events)
        assert ours.bit_generator.state == theirs.bit_generator.state  # dropouts draw next

    def test_a_zero_amplitude_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no sample above 0.05 of its amplitude"):
            generate_run(SynthConfig(run_duration=5.0), fixed_style(amplitude=0.0),
                         np.random.default_rng(0), "r0")


class TestInjectDropouts:
    def base_run(self, n=2000):
        cfg = SynthConfig(run_duration=n / 200.0, baseline_noise=0.0)
        return generate_run(cfg, fixed_style(), np.random.default_rng(0), "r0").run

    def test_zero_probability_unchanged(self):
        run = self.base_run()
        assert inject_dropouts(run, 0.0, np.random.default_rng(0)) is run

    def test_full_probability_keeps_one_valid(self):
        run = self.base_run(400)
        out = inject_dropouts(run, 1.0, np.random.default_rng(0))
        assert out.valid.sum() == 1

    def test_expected_count_reproducible(self):
        run = self.base_run(2000)
        a = inject_dropouts(run, 0.01, np.random.default_rng(7))
        b = inject_dropouts(run, 0.01, np.random.default_rng(7))
        np.testing.assert_array_equal(a.valid, b.valid)
        invalid = (~a.valid).sum()
        assert 5 <= invalid <= 40  # ~Binomial(2000, 0.01)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            inject_dropouts(self.base_run(400), 1.5, np.random.default_rng(0))


class TestGenerateDataset:
    def test_counts_and_distinct_styles(self):
        cfg = SynthConfig(n_athletes=6, runs_per_athlete=2, run_duration=6.0, seed=3)
        data = generate_dataset(cfg)
        assert len(data) == 12
        styles = {s.style.athlete_id: s.style for s in data}
        assert len(styles) == 6
        rates = {round(st.stroke_rate, 6) for st in styles.values()}
        assert len(rates) == 6

    def test_athlete_style_fixed_across_runs(self):
        cfg = SynthConfig(n_athletes=3, runs_per_athlete=3, run_duration=6.0, seed=5)
        data = generate_dataset(cfg)
        for synth_run in data:
            assert synth_run.style == next(
                s.style for s in data if s.style.athlete_id == synth_run.run.athlete_id
            )

    def test_different_seeds_differ(self):
        cfg_a = SynthConfig(n_athletes=2, runs_per_athlete=1, run_duration=6.0, seed=0)
        cfg_b = SynthConfig(n_athletes=2, runs_per_athlete=1, run_duration=6.0, seed=1)
        a = generate_dataset(cfg_a)[0]
        b = generate_dataset(cfg_b)[0]
        assert [e.t for e in a.events] != [e.t for e in b.events]

    def test_pure_function_of_config(self):
        cfg = SynthConfig(n_athletes=4, runs_per_athlete=2, run_duration=8.0, seed=11)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.run.force, rb.run.force)
            np.testing.assert_array_equal(ra.run.valid, rb.run.valid)
            assert ra.events == rb.events

    def test_event_counts_match_pulse_counts(self):
        cfg = SynthConfig(n_athletes=2, runs_per_athlete=1, run_duration=10.0,
                          seed=2, dropout_prob=0.0)
        for synth_run in generate_dataset(cfg):
            period = 200 * 60.0 / synth_run.style.stroke_rate
            n = len(synth_run.run)
            # pulses fit while start + pulse_length <= n
            count = 0
            duration = max(4, int(round(synth_run.style.duty * period)))
            n_rise = max(1, int(round(synth_run.style.rise_fraction * duration)))
            n_fall = max(1, duration - n_rise)
            pulse_len = n_rise + n_fall + 1
            while int(round(count * period)) + pulse_len <= n:
                count += 1
            assert len(synth_run.events) == 2 * count

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(stroke_rate_min=0.0, stroke_rate_max=100.0)
        with pytest.raises(ConfigError):
            SynthConfig(dropout_prob=2.0)
