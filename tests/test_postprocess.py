import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strokedet.errors import ConfigError, DataError
from strokedet.labels import ENDING, ONSET, EventLabel, smooth_events
from strokedet.postprocess import (
    Detection,
    _fit_coefficients,
    ExtractorConfig,
    cluster_detections,
    extract_candidates,
    extract_events,
    percentile,
    read_detections_jsonl,
    savgol_filter,
    write_detections_jsonl,
)


def _loop_savgol(x, window, order):
    """The per-row filter `savgol_filter` replaced: one coefficient row per edge sample."""
    n, half = x.size, window // 2
    out = np.empty(n)
    out[half:n - half] = np.correlate(x, _fit_coefficients(window, order, half), mode="valid")
    for i in range(half):
        out[i] = _fit_coefficients(i + half + 1, order, i) @ x[:i + half + 1]
    for i in range(n - half, n):
        seg = x[i - half:]
        out[i] = _fit_coefficients(seg.size, order, half) @ seg
    return out


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_loop_bit_for_bit(self, data):
        window = data.draw(st.sampled_from(range(1, 42, 2)), label="window")
        order = data.draw(st.integers(0, min(3, window - 1)), label="order")
        n = data.draw(st.integers(window, 120), label="length")
        x = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
        assert savgol_filter(x, window, order).tobytes() == _loop_savgol(x, window, order).tobytes()


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

    @pytest.mark.parametrize("p", [-0.1, 100.5, float("nan")])
    def test_rank_outside_range_rejected(self, p):
        with pytest.raises(ConfigError):
            percentile([1.0, 2.0], p)

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])),
                    min_size=1, max_size=30),
           st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 100.0, 50.0, 85.0, 15.0])))
    @example([-0.0], 0.0)
    @example([-0.0], 100.0)
    @example([-0.0, -0.0, 1.0], 50.0)
    @example([0.0, -0.0, -0.0], 50.0)
    @example([2.5], 42.0)
    @example([1.0, 1.0, 1.0, 3.0], 85.0)
    @settings(max_examples=500)
    def test_equals_numpy_bit_for_bit(self, values, p):
        with np.errstate(all="ignore"):  # spans near the float range overflow in both
            want = float(np.percentile(np.array(values), p))
        got = percentile(values, p)
        if 0.0 in values and {math.copysign(1.0, v) for v in values if v == 0.0} == {-1.0, 1.0}:
            # 0.0 and -0.0 tie: numpy's partition and a sort may leave either
            # one at a rank, so a zero result may carry either sign
            assert got == want
        else:
            assert got.hex() == want.hex()


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
        upper = np.percentile(pos, cfg.upper_percentile)
        lower = np.percentile(neg, cfg.lower_percentile)
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
        upper = np.percentile(signal[signal > 0], cfg.upper_percentile)
        lower = np.percentile(signal[signal < 0], cfg.lower_percentile)
        for d in dets:
            if d.kind == ONSET:
                assert d.score > upper
            else:
                assert d.score < lower


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


def _loop_candidates(x, cfg):
    """The per-sample scan `extract_candidates` replaced, as (t, kind, score)."""
    expected = []
    positives = x[x > 0.0]
    if positives.size:
        upper = percentile(positives, cfg.upper_percentile)
        expected += [(t, ONSET, float(x[t])) for t in _local_extrema(x, True) if x[t] > upper]
    negatives = x[x < 0.0]
    if negatives.size:
        lower = percentile(negatives, cfg.lower_percentile)
        expected += [(t, ENDING, float(x[t])) for t in _local_extrema(x, False) if x[t] < lower]
    return sorted(expected)


# runs of equal integers: plateaus anywhere, at either end, or the whole signal
plateau_signals = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 6)), max_size=40,
).map(lambda runs: np.array([v for v, n in runs for _ in range(n)][:40], dtype=float))
float_signals = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False), max_size=40,
).map(lambda xs: np.array(xs, dtype=float))
percentiles = st.floats(1.0, 99.0)


class TestExtractCandidatesMatchesLoop:
    def check(self, x, upper, lower):
        cfg = ExtractorConfig(upper_percentile=upper, lower_percentile=lower)
        dets = extract_candidates(x, cfg)
        assert all(type(d.t) is int and type(d.score) is float for d in dets)
        assert [(d.t, d.kind, d.score) for d in dets] == _loop_candidates(x, cfg)

    @given(plateau_signals, percentiles, percentiles)
    @settings(max_examples=400)
    def test_integer_signals_with_plateaus(self, x, upper, lower):
        self.check(x, upper, lower)

    @given(st.integers(-2, 2), st.integers(0, 40))
    def test_constant_signals(self, value, n):
        self.check(np.full(n, float(value)), 85.0, 15.0)

    @given(float_signals, percentiles, percentiles)
    @settings(max_examples=200)
    def test_float_signals(self, x, upper, lower):
        self.check(x, upper, lower)

    def test_edge_plateaus_and_lower_midpoint(self):
        x = np.array([2.0, 2.0, 0.5, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0, -1.0, -0.5, -2.0, -2.0])
        self.check(x, 1.0, 99.0)
        dets = extract_candidates(x, ExtractorConfig(upper_percentile=1.0, lower_percentile=99.0))
        assert [(d.t, d.kind) for d in dets] == [(3, ONSET), (7, ENDING)]


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
    '{"t": 12.7, "kind": "onset", "score": 0.5}',
    '{"t": true, "kind": "onset", "score": 0.5}',
    '{"t": 10, "kind": "sideways", "score": 0.5}',
    '{"t": 10, "score": 0.5}',
], ids=["truncated", "missing-score", "text-score", "not-object", "fractional-t", "bool-t",
        "unknown-kind", "missing-kind"])
def test_malformed_detection_record_rejected(tmp_path, record):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"window": "run01:0"}\n' + record + "\n")
    with pytest.raises(DataError, match="line 2"):
        read_detections_jsonl(path)
