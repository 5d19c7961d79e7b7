import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet.errors import ConfigError, DataError
from strokedet.labels import ENDING, ONSET, EventLabel, smooth_events
from strokedet.postprocess import (
    Detection,
    ExtractorConfig,
    cluster_detections,
    extract_candidates,
    extract_events,
    percentile,
    read_detections_jsonl,
    savgol_filter,
    write_detections_jsonl,
)


class TestSavgolFilter:
    def test_quadratic_reproduced_including_boundaries(self):
        i = np.arange(60, dtype=float)
        signal = 3.0 * i**2 - 2.0 * i + 1.0
        np.testing.assert_allclose(savgol_filter(signal, 31, 2), signal, atol=1e-9)

    def test_constant_unchanged(self):
        signal = np.full(40, 7.25)
        np.testing.assert_allclose(savgol_filter(signal, 5, 2), signal, atol=1e-12)

    def test_impulse_center_value(self):
        # 5-point quadratic least squares: center coefficient is 17/35
        impulse = np.zeros(11)
        impulse[5] = 1.0
        out = savgol_filter(impulse, 5, 2)
        assert out[5] == pytest.approx(17.0 / 35.0, abs=1e-12)

    def test_too_short_signal_rejected(self):
        with pytest.raises(DataError):
            savgol_filter(np.zeros(10), 31, 2)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            savgol_filter(np.zeros(50), 30, 2)

    @given(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
           st.sampled_from([5, 9, 31]))
    @settings(max_examples=40)
    def test_degree_two_polynomials_are_fixed_points(self, coeffs, window):
        a, b, c = coeffs
        i = np.arange(50, dtype=float)
        signal = a * i**2 + b * i + c
        np.testing.assert_allclose(savgol_filter(signal, window, 2), signal, atol=1e-8)


class TestPercentile:
    def test_linear_interpolation(self):
        values = np.arange(0.1, 1.05, 0.1)
        assert percentile(values, 85) == pytest.approx(0.865, abs=1e-12)

    def test_single_value(self):
        assert percentile([3.5], 42.0) == 3.5

    def test_extremes(self):
        values = [4.0, -1.0, 2.5]
        assert percentile(values, 0) == -1.0
        assert percentile(values, 100) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            percentile([], 50)


def bump(center, width, height, length=200):
    i = np.arange(length)
    return height * np.exp(-0.5 * ((i - center) / width) ** 2)


class TestExtractCandidates:
    def test_single_bump_single_onset(self):
        signal = bump(100, 12.0, 0.9)
        dets = extract_candidates(signal, ExtractorConfig())
        assert len(dets) == 1
        assert dets[0].kind == ONSET and dets[0].t == 100

    def test_zero_signal_no_detections(self):
        assert extract_candidates(np.zeros(100), ExtractorConfig()) == []

    def test_matches_brute_force_oracle(self):
        signal = bump(50, 8.0, 1.0) + bump(150, 9.0, 0.7) - bump(90, 7.0, 0.8) - bump(180, 6.0, 1.1)
        cfg = ExtractorConfig()
        dets = extract_candidates(signal, cfg)

        # independent exhaustive scan over interior samples
        pos = signal[signal > 0]
        neg = signal[signal < 0]
        upper = np.percentile(pos, cfg.upper_pct)
        lower = np.percentile(neg, cfg.lower_pct)
        expected = []
        for t in range(1, len(signal) - 1):
            if signal[t] > signal[t - 1] and signal[t] > signal[t + 1] and signal[t] > upper:
                expected.append((t, ONSET))
            if signal[t] < signal[t - 1] and signal[t] < signal[t + 1] and signal[t] < lower:
                expected.append((t, ENDING))
        assert [(d.t, d.kind) for d in dets] == sorted(expected)

    def test_plateau_midpoint(self):
        # enough sub-threshold tail mass that the 85th percentile sits below
        # the plateau value, so the strict inequality keeps the plateau
        signal = np.concatenate([
            np.linspace(0.01, 0.4, 12), [0.9, 0.9, 0.9], np.linspace(0.38, 0.01, 12),
        ])
        dets = extract_candidates(signal, ExtractorConfig())
        onsets = [d for d in dets if d.kind == ONSET]
        assert [d.t for d in onsets] == [13]

    def test_boundary_samples_excluded(self):
        signal = np.array([1.0, 0.5, 0.2, 0.1, 0.05, 0.01])
        dets = extract_candidates(signal, ExtractorConfig())
        assert dets == []

    def test_thresholds_hold_strictly(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(scale=0.5, size=400)
        cfg = ExtractorConfig()
        dets = extract_candidates(signal, cfg)
        upper = np.percentile(signal[signal > 0], cfg.upper_pct)
        lower = np.percentile(signal[signal < 0], cfg.lower_pct)
        for d in dets:
            if d.kind == ONSET:
                assert d.score > upper
            else:
                assert d.score < lower


class TestClusterDetections:
    def test_chain_takes_argmax(self):
        dets = [Detection(100, ONSET, 0.5), Detection(103, ONSET, 0.9), Detection(107, ONSET, 0.7)]
        assert cluster_detections(dets, 5) == [Detection(103, ONSET, 0.9)]

    def test_score_tie_takes_temporal_average(self):
        dets = [Detection(200, ONSET, 0.8), Detection(204, ONSET, 0.8)]
        assert cluster_detections(dets, 5) == [Detection(202, ONSET, 0.8)]

    def test_half_sample_average_rounds_earlier(self):
        dets = [Detection(200, ONSET, 0.8), Detection(205, ONSET, 0.8)]
        assert cluster_detections(dets, 5)[0].t == 202

    def test_opposite_kinds_never_merge(self):
        dets = [Detection(100, ONSET, 0.5), Detection(102, ENDING, -0.5)]
        assert cluster_detections(dets, 5) == dets

    @given(st.lists(st.tuples(st.integers(0, 300), st.floats(0.01, 1.0)), max_size=25))
    @settings(max_examples=150)
    def test_idempotent_and_gap_guarantee(self, raw):
        dets = [Detection(t, ONSET, s) for t, s in raw]
        once = cluster_detections(dets, 5)
        twice = cluster_detections(once, 5)
        assert twice == once
        ts = [d.t for d in once]
        assert all(b - a > 5 for a, b in zip(ts, ts[1:]))


class TestExtractEvents:
    def test_zero_output_empty(self):
        assert extract_events(np.zeros(1000), ExtractorConfig()) == []

    def test_recovers_events_from_smoothed_labels(self):
        events = [EventLabel(120, ONSET), EventLabel(260, ENDING),
                  EventLabel(430, ONSET), EventLabel(570, ENDING),
                  EventLabel(700, ONSET), EventLabel(840, ENDING)]
        target = smooth_events(events, 1000)
        dets = extract_events(target, ExtractorConfig())
        assert len(dets) == len(events)
        for det, ev in zip(dets, events):
            assert det.kind == ev.kind
            assert abs(det.t - ev.t) <= 2

    def test_noise_robustness_same_event_count(self):
        events = [EventLabel(150, ONSET), EventLabel(300, ENDING),
                  EventLabel(520, ONSET), EventLabel(680, ENDING)]
        target = smooth_events(events, 1000)
        rng = np.random.default_rng(42)
        noisy = target + rng.uniform(-0.05, 0.05, size=1000)
        assert len(extract_events(noisy, ExtractorConfig())) == len(extract_events(target, ExtractorConfig()))

    def test_kinds_alternate_on_clean_cycles(self):
        events = []
        for start in range(100, 900, 200):
            events.append(EventLabel(start, ONSET))
            events.append(EventLabel(start + 110, ENDING))
        dets = extract_events(smooth_events(events, 1000), ExtractorConfig())
        kinds = [d.kind for d in dets]
        assert kinds == [ONSET, ENDING] * (len(kinds) // 2)


def test_detections_jsonl_roundtrip(tmp_path):
    groups = [
        ("run01:0", [Detection(10, ONSET, 0.5), Detection(80, ENDING, -0.4)]),
        ("run01:100", []),
    ]
    path = tmp_path / "dets.jsonl"
    write_detections_jsonl(path, groups)
    back = read_detections_jsonl(path)
    assert back == groups


@pytest.mark.parametrize("record", [
    '{"t": 10, "kind": "onset", "score": 0.5',  # truncated
    '{"t": 10, "kind": "onset"}',
    '{"t": 10, "kind": "onset", "score": "high"}',
    '"run01:0"',
], ids=["truncated", "missing-score", "text-score", "not-object"])
def test_malformed_detection_record_rejected(tmp_path, record):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"window": "run01:0"}\n' + record + "\n")
    with pytest.raises(DataError, match="line 2"):
        read_detections_jsonl(path)
