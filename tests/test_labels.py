import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strokedet.errors import DataError
from strokedet.labels import (
    ENDING,
    ONSET,
    EventLabel,
    encode_ternary,
    gaussian_kernel,
    gaussian_smooth,
    read_events_jsonl,
    smooth_events,
    write_events_jsonl,
)


class TestEncodeTernary:
    def test_single_onset(self):
        v = encode_ternary([EventLabel(500, ONSET)])
        assert v[500] == 1.0 and np.count_nonzero(v) == 1

    def test_two_impulses(self):
        v = encode_ternary([EventLabel(10, ENDING), EventLabel(20, ONSET)])
        assert v[10] == -1.0 and v[20] == 1.0 and np.count_nonzero(v) == 2

    def test_empty_is_zeros(self):
        assert not encode_ternary([]).any()

    def test_conflicting_kinds_rejected(self):
        with pytest.raises(DataError):
            encode_ternary([EventLabel(5, ONSET), EventLabel(5, ENDING)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            encode_ternary([EventLabel(1000, ONSET)], length=1000)


class TestGaussianSmooth:
    def test_kernel_peak_is_one(self):
        k = gaussian_kernel(100, 10.0)
        assert k.size == 101
        assert k.max() == 1.0 and k[k.size // 2] == 1.0

    def test_impulse_values(self):
        v = encode_ternary([EventLabel(500, ONSET)])
        s = gaussian_smooth(v)
        assert s[500] == pytest.approx(1.0, abs=1e-12)
        assert s[490] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert s[510] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_zero_vector_stays_zero(self):
        assert not gaussian_smooth(np.zeros(1000)).any()

    def test_overlapping_tails_sum(self):
        # frozen via the kernel-sum oracle: 1 - exp(-0.5*(30/10)^2)
        v = encode_ternary([EventLabel(100, ONSET), EventLabel(130, ENDING)])
        s = gaussian_smooth(v)
        assert s[100] == pytest.approx(1.0 - np.exp(-4.5), abs=1e-12)

    def test_peak_location_preserved(self):
        v = encode_ternary([EventLabel(400, ONSET)])
        assert int(np.argmax(gaussian_smooth(v))) == 400

    def test_symmetry_about_impulse(self):
        v = encode_ternary([EventLabel(500, ONSET)])
        s = gaussian_smooth(v)
        for off in range(1, 51):
            assert s[500 - off] == pytest.approx(s[500 + off], abs=1e-15)

    @given(st.integers(0, 999), st.integers(0, 999))
    def test_linearity(self, t1, t2):
        a = np.zeros(1000)
        a[t1] = 1.0
        b = np.zeros(1000)
        b[t2] = -1.0
        left = gaussian_smooth(a + b)
        right = gaussian_smooth(a) + gaussian_smooth(b)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_run_shorter_than_kernel_keeps_length_and_peak(self):
        s = smooth_events([EventLabel(30, ONSET)], 60)
        assert s.shape == (60,) and int(np.argmax(s)) == 30 and s[30] == 1.0

    @given(st.integers(1, 300), st.integers(1, 150), st.floats(0.5, 30.0), st.integers(0, 2**32 - 1))
    def test_matches_zero_padded_smoothing(self, n, window, sigma, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        kernel = gaussian_kernel(window, sigma)
        s = gaussian_smooth(x, window, sigma)
        assert s.shape == (n,)
        if n >= kernel.size:  # where "same" mode already had the input's length
            np.testing.assert_array_equal(s, np.convolve(x, kernel, mode="same"))
        pad = kernel.size
        padded = np.convolve(np.pad(x, pad), kernel, mode="same")[pad:pad + n]
        np.testing.assert_allclose(s, padded, atol=1e-12)


class TestEventFiles:
    def test_jsonl_roundtrip(self, tmp_path):
        events = [EventLabel(3, ONSET), EventLabel(90, ENDING)]
        path = tmp_path / "ev.jsonl"
        write_events_jsonl(path, events)
        assert path.read_text().splitlines()[0] == '{"frame": "run"}'
        assert read_events_jsonl(path) == events

    @pytest.mark.parametrize("header", ['{"frame": "window"}', '{"frame": null}', "{}"])
    def test_frame_other_than_run_rejected(self, tmp_path, header):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + '\n{"t": 3, "kind": "onset"}\n')
        with pytest.raises(DataError, match="frame 'run'"):
            read_events_jsonl(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 3, "kind": "onset"}\n')
        with pytest.raises(DataError):
            read_events_jsonl(path)

    @pytest.mark.parametrize("record", [
        '{"t": 3, "kind": "onset"',  # truncated
        '[3, "onset"]',
        '{"kind": "onset"}',
        '{"t": "three", "kind": "onset"}',
        '{"t": Infinity, "kind": "onset"}',
        '{"t": 12.7, "kind": "onset"}',
        '{"t": 12.0, "kind": "onset"}',
        '{"t": true, "kind": "onset"}',
        '{"t": 3, "kind": "sideways"}',
    ], ids=["truncated", "not-object", "missing-t", "text-t", "infinite-t", "fractional-t", "float-t",
            "bool-t", "unknown-kind"])
    def test_malformed_record_rejected(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame": "run"}\n' + record + "\n")
        with pytest.raises(DataError, match="line 2"):
            read_events_jsonl(path)
