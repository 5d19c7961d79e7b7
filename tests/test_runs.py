import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet.config import PipelineConfig
from strokedet.errors import ConfigError, DataError
from strokedet.pipeline import materialize_dataset
from strokedet.runs import (
    RawRun,
    interpolate_gaps,
    minmax_normalize,
    read_run_csv,
    read_split_json,
    subject_aware_split,
    write_run_csv,
    write_split_json,
)


def make_run(force, valid=None, run_id="1", athlete_id="a1"):
    force = np.asarray(force, dtype=float)
    if valid is None:
        valid = np.ones(force.size, dtype=bool)
    return RawRun(run_id=run_id, athlete_id=athlete_id, boat_type="canoe",
                  force=force, valid=np.asarray(valid, dtype=bool))


class TestInterpolateGaps:
    def test_linear_midpoint(self):
        run = make_run([1.0, 0.0, 3.0], valid=[1, 0, 1])
        assert interpolate_gaps(run).force.tolist() == [1.0, 2.0, 3.0]

    def test_leading_hold(self):
        run = make_run([0.0, 0.0, 5.0, 7.0], valid=[0, 0, 1, 1])
        assert interpolate_gaps(run).force.tolist() == [5.0, 5.0, 5.0, 7.0]

    def test_trailing_hold(self):
        run = make_run([2.0, 9.0, 0.0], valid=[1, 1, 0])
        assert interpolate_gaps(run).force.tolist() == [2.0, 9.0, 9.0]

    def test_linear_span(self):
        run = make_run([0.0, 0, 0, 0, 4.0], valid=[1, 0, 0, 0, 1])
        assert interpolate_gaps(run).force.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_all_invalid_rejected(self):
        with pytest.raises(DataError):
            make_run([1.0, 2.0], valid=[0, 0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60),
           st.lists(st.booleans(), min_size=2, max_size=60))
    def test_valid_samples_preserved_bit_exact(self, force, valid):
        n = min(len(force), len(valid))
        force, valid = force[:n], valid[:n]
        if not any(valid):
            valid[0] = True
        run = make_run(force, valid)
        filled = interpolate_gaps(run)
        assert filled.valid.all()
        mask = np.asarray(valid)
        np.testing.assert_array_equal(filled.force[mask], np.asarray(force)[mask])
        # the gaps hold what interpolating the whole run gives there
        idx = np.flatnonzero(mask)
        whole = np.interp(np.arange(n), idx, np.asarray(force)[idx])
        assert filled.force[~mask].tobytes() == whole[~mask].tobytes()


def windows_of(run, length=1000, stride=100):
    """(starts, rows of X) that `materialize_dataset` cuts from `run`; runs of
    two other athletes complete the split."""
    rest = [make_run(np.arange(1000.0), run_id=f"o{i}", athlete_id=f"o{i}") for i in range(2)]
    cfg = PipelineConfig(window_length=length, window_stride=stride, n_folds=2,
                         holdout_fraction=0.0)
    ds = materialize_dataset([(r, []) for r in (run, *rest)], cfg)
    rows = [i for i, m in enumerate(ds.meta) if m["run_id"] == run.run_id]
    return [ds.meta[i]["start"] for i in rows], ds.X[rows]


class TestSlideWindows:
    def test_count_formula(self):
        starts, _ = windows_of(make_run(np.arange(1900.0)), length=1000, stride=100)
        assert starts == list(range(0, 1000, 100))

    def test_exact_fit(self):
        starts, _ = windows_of(make_run(np.arange(1000.0)))
        assert starts == [0]

    def test_too_short_warns(self):
        with pytest.warns(UserWarning, match="999 samples < window length 1000"):
            starts, _ = windows_of(make_run(np.arange(999.0)))
        assert starts == []

    def test_window_content_matches_source(self):
        rng = np.random.default_rng(0)
        run = make_run(rng.normal(size=1450))
        starts, rows = windows_of(run, length=300, stride=70)
        assert starts == list(range(0, 1151, 70))
        for start, row in zip(starts, rows):
            assert row.tobytes() == minmax_normalize(run.force[start:start + 300]).tobytes()

    @pytest.mark.parametrize("length, stride", [(0, 100), (1000, 0), (-5, 100)])
    def test_non_positive_length_or_stride_rejected(self, length, stride):
        with pytest.raises(ConfigError, match="window length and stride must be positive"):
            windows_of(make_run(np.arange(1900.0)), length=length, stride=stride)


class TestMinmaxNormalize:
    def test_affine_map(self):
        assert minmax_normalize([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]

    def test_constant_goes_to_zeros(self):
        assert minmax_normalize([5, 5, 5]).tolist() == [0.0, 0.0, 0.0]

    def test_sign_agnostic(self):
        assert minmax_normalize([-1, 0, 1]).tolist() == [0.0, 0.5, 1.0]

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50))
    def test_idempotent(self, values):
        once = minmax_normalize(values)
        twice = minmax_normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        if once.max() != once.min():
            assert once.min() == 0.0 and once.max() == 1.0

    @given(st.lists(st.lists(st.floats(-1e9, 1e9), min_size=4, max_size=4), min_size=1, max_size=6))
    def test_rows_normalised_along_last_axis(self, rows):
        x = np.array(rows + [[2.5] * 4])  # and one constant row
        out = minmax_normalize(x)
        for row, got in zip(x, out):
            lo, hi = row.min(), row.max()
            want = np.zeros_like(row) if hi == lo else (row - lo) / (hi - lo)
            assert got.tobytes() == want.tobytes()


class TestSubjectAwareSplit:
    def runs_for(self, n_athletes, runs_each=1):
        return [
            make_run(np.arange(10.0), run_id=f"{a}{r}", athlete_id=f"ath{a}")
            for a in range(n_athletes) for r in range(runs_each)
        ]

    def test_round_robin_six_athletes(self):
        plan = subject_aware_split(self.runs_for(6), n_folds=5, holdout_fraction=0.15, seed=0)
        labels = sorted(plan.assignments.values())
        assert labels == sorted(["holdout"] + [f"fold{i}" for i in range(5)])

    def test_deterministic(self):
        a = subject_aware_split(self.runs_for(9), 5, 0.2, seed=11)
        b = subject_aware_split(self.runs_for(9), 5, 0.2, seed=11)
        assert a == b

    def test_subject_awareness(self):
        runs = self.runs_for(7, runs_each=3)
        plan = subject_aware_split(runs, 5, 0.15, seed=3)
        for run in runs:
            assert run.athlete_id in plan.assignments

    def test_partition_is_exact_cover(self):
        runs = self.runs_for(12)
        plan = subject_aware_split(runs, 4, 0.25, seed=5)
        athletes = {r.athlete_id for r in runs}
        assert set(plan.assignments) == athletes
        labels = set(plan.assignments.values())
        assert labels <= {"holdout"} | {f"fold{i}" for i in range(4)}

    def test_too_few_athletes_rejected(self):
        with pytest.raises(DataError):
            subject_aware_split(self.runs_for(5), n_folds=5, holdout_fraction=0.0, seed=0)

    def test_bad_fold_count_rejected(self):
        with pytest.raises(ConfigError):
            subject_aware_split(self.runs_for(6), n_folds=1, holdout_fraction=0.0, seed=0)


class TestRunFiles:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        run = make_run(rng.normal(size=37), valid=rng.random(37) > 0.1,
                       run_id="07", athlete_id="a03")
        path = write_run_csv(run, tmp_path)
        assert path.name == "run07_atha03.csv"
        back = read_run_csv(path)
        assert back.run_id == "07" and back.athlete_id == "a03"
        np.testing.assert_array_equal(back.force, run.force)
        np.testing.assert_array_equal(back.valid, run.valid)

    def test_bad_filename_rejected(self, tmp_path):
        path = tmp_path / "something.csv"
        path.write_text("index,force,valid\n")
        with pytest.raises(DataError):
            read_run_csv(path)

    def test_split_json_roundtrip(self, tmp_path):
        plan = subject_aware_split(
            [make_run(np.arange(5.0), athlete_id=f"x{i}") for i in range(8)], 3, 0.2, seed=1
        )
        write_split_json(plan, tmp_path / "split.json")
        assert read_split_json(tmp_path / "split.json") == plan

    @pytest.mark.parametrize("row, error", [
        (b"0,abc,1", "line 2"),
        (b"zero,1.5,1", "line 2"),
        (b"0,nan,1", "non-finite"),
        (b"0,inf,1", "non-finite"),
        (b"0,\xff,1", "not a readable CSV"),
        (b"0,nan,0", None),  # a gap sample may hold anything; interpolation replaces it
    ], ids=["text-force", "text-index", "nan-force", "inf-force", "not-utf8", "nan-gap"])
    def test_malformed_cells(self, tmp_path, row, error):
        path = tmp_path / "run1_ath1.csv"
        path.write_bytes(b"index,force,valid\n" + row + b"\n1,2.5,1\n")
        if error is None:
            assert interpolate_gaps(read_run_csv(path)).force.tolist() == [2.5, 2.5]
        else:
            with pytest.raises(DataError, match=error):
                read_run_csv(path)
