import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet import labels as lb
from strokedet import pipeline as pl
from strokedet import runs as rn
from strokedet.config import PipelineConfig, load_config
from strokedet.errors import DataError
from strokedet.labels import ENDING, ONSET, EventLabel
from strokedet.runs import RawRun
from strokedet.synth import generate_dataset


@pytest.fixture(scope="module")
def small_cfg():
    return load_config(None, overrides=[
        "n_athletes=4", "runs_per_athlete=1", "run_duration=8",
        "n_folds=2", "holdout_fraction=0.25", "seed=1",
    ])


@pytest.fixture(scope="module")
def dataset(small_cfg):
    synth = generate_dataset(small_cfg.synth_config())
    return pl.materialize_dataset([(s.run, s.events) for s in synth], small_cfg)


def test_window_shapes_and_normalization(dataset):
    n, t = dataset.X.shape
    assert t == 1000 and dataset.Y.shape == (n, t)
    for row in dataset.X:
        assert row.min() == 0.0 and row.max() == pytest.approx(1.0)


def test_targets_sliced_from_run_level_smoothing(dataset, small_cfg):
    # a window's target must carry tails of events just outside the window
    from strokedet.labels import smooth_events
    synth = generate_dataset(small_cfg.synth_config())
    run, events = synth[0].run, synth[0].events
    full = smooth_events(events, len(run), small_cfg.label_kernel_window, small_cfg.label_sigma)
    rows = [i for i, m in enumerate(dataset.meta) if m["run_id"] == run.run_id]
    for i in rows:
        start = dataset.meta[i]["start"]
        np.testing.assert_allclose(dataset.Y[i], full[start:start + 1000], atol=1e-12)


def test_window_events_are_window_relative(dataset):
    for meta, events in zip(dataset.meta, dataset.events):
        for ev in events:
            assert 0 <= ev.t < 1000


def assert_labels_shared(events):
    labels = [ev for window in events for ev in window]
    assert len({id(ev) for ev in labels}) == len({(ev.t, ev.kind) for ev in labels})


def reference_materialize(run_event_pairs, cfg):
    """The per-window build that `materialize_dataset` replaced: a copy of
    each window, zeros-based min-max normalization, and a scan of every run
    event for each window, with a new EventLabel per window event."""
    length, stride = cfg.window_length, cfg.window_stride
    xs, ys, meta, window_events = [], [], [], []
    for run, events in run_event_pairs:
        filled = rn.interpolate_gaps(run)
        target_full = lb.smooth_events(events, len(filled), cfg.label_kernel_window,
                                       cfg.label_sigma)
        starts = range(0, len(filled) - length + 1, stride)
        if starts:
            x = np.stack([filled.force[s:s + length].copy() for s in starts])
            lo, hi = x.min(axis=-1, keepdims=True), x.max(axis=-1, keepdims=True)
            xs.append(np.divide(x - lo, hi - lo, out=np.zeros_like(x), where=hi != lo))
        for s in starts:
            ys.append(target_full[s:s + length])
            meta.append({"run_id": run.run_id, "athlete_id": run.athlete_id, "start": s})
            window_events.append([EventLabel(t=ev.t - s, kind=ev.kind)
                                  for ev in events if s <= ev.t < s + length])
    return np.concatenate(xs), np.stack(ys), meta, window_events


@st.composite
def runs_with_events(draw):
    """Three to five runs, some exactly one window long or one sample short,
    with unsorted and repeated events, many at a window's first and last
    sample and one past its end."""
    length, stride = draw(st.integers(2, 12)), draw(st.integers(1, 15))
    pairs = []
    for r in range(draw(st.integers(3, 5))):
        n = draw(st.one_of(st.sampled_from([length - 1, length]), st.integers(1, 4 * length + 3)))
        n = max(n, 1)
        force = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
        valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        valid[draw(st.integers(0, n - 1))] = True
        edges = [t for s in range(0, n - length + 1, stride)
                 for t in (s, s + length - 1, s + length) if t < n]
        times = draw(st.lists(st.one_of(st.integers(0, n - 1), st.sampled_from(edges or [0])),
                              max_size=12))
        kinds = {t: draw(st.sampled_from([ONSET, ENDING])) for t in sorted(set(times))}
        run = RawRun(run_id=f"{r}", athlete_id=f"a{r}", boat_type="canoe",
                     force=np.asarray(force), valid=np.asarray(valid))
        pairs.append((run, [EventLabel(t=t, kind=kinds[t]) for t in times]))
    cfg = PipelineConfig(window_length=length, window_stride=stride, n_folds=2,
                         holdout_fraction=0.0, label_kernel_window=draw(st.integers(1, 6)),
                         label_sigma=1.5)
    return pairs, cfg


@settings(max_examples=150, deadline=None)
@given(runs_with_events())
def test_materialize_matches_the_per_window_reference(case):
    pairs, cfg = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if all(len(run) < cfg.window_length for run, _ in pairs):
            with pytest.raises(DataError, match="no windows produced"):
                pl.materialize_dataset(pairs, cfg)
            return
        ds = pl.materialize_dataset(pairs, cfg)
    X, Y, meta, events = reference_materialize(pairs, cfg)
    assert [str(w.message) for w in caught] == [
        f"run {run.run_id}: {len(run)} samples < window length {cfg.window_length}, "
        "no windows emitted" for run, _ in pairs if len(run) < cfg.window_length
    ]
    assert ds.X.shape == X.shape and ds.X.tobytes() == X.tobytes()
    assert ds.Y.shape == Y.shape and ds.Y.tobytes() == Y.tobytes()
    assert ds.meta == meta
    assert repr(ds.events) == repr(events) and ds.events == events
    assert_labels_shared(ds.events)


def test_the_seeded_set_matches_the_per_window_reference(dataset, small_cfg):
    synth = generate_dataset(small_cfg.synth_config())
    X, Y, meta, events = reference_materialize([(s.run, s.events) for s in synth], small_cfg)
    assert dataset.X.tobytes() == X.tobytes() and dataset.Y.tobytes() == Y.tobytes()
    assert dataset.meta == meta and repr(dataset.events) == repr(events)
    assert_labels_shared(dataset.events)


def test_partition_indices_cover_everything(dataset):
    holdout = set(dataset.partition_indices("holdout"))
    train = set(dataset.partition_indices("train"))
    assert holdout | train == set(range(dataset.X.shape[0]))
    assert holdout.isdisjoint(train)
    minus = set(dataset.partition_indices("train_minus_val", val_fold=0))
    fold0 = set(dataset.partition_indices("fold0"))
    assert minus | fold0 == train and minus.isdisjoint(fold0)


def test_save_load_roundtrip(dataset, tmp_path):
    pl.save_dataset(dataset, tmp_path)
    back = pl.load_dataset(tmp_path)
    np.testing.assert_array_equal(back.X, dataset.X)
    np.testing.assert_array_equal(back.Y, dataset.Y)
    assert back.meta == dataset.meta
    assert back.events == dataset.events
    assert back.split == dataset.split
    assert_labels_shared(back.events)


def test_save_is_byte_deterministic(dataset, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    pl.save_dataset(dataset, a)
    pl.save_dataset(dataset, b)
    for name in ("windows.bin", "windows.meta.json", "split.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_load_missing_dir_rejected(tmp_path):
    with pytest.raises(DataError):
        pl.load_dataset(tmp_path / "nothing")


def test_load_runs_dir_rejects_an_unknown_boat_type(tmp_path, small_cfg):
    synth = generate_dataset(small_cfg.synth_config())[0]
    path = rn.write_run_csv(synth.run, tmp_path)
    lb.write_events_jsonl(tmp_path / f"{path.stem}.events.jsonl", synth.events)
    (tmp_path / pl.MANIFEST).write_text(json.dumps(
        {"files": [{"run_id": synth.run.run_id, "boat_type": "submarine"}]}))
    with pytest.raises(DataError, match="unknown boat type 'submarine'"):
        pl.load_runs_dir(tmp_path)


def test_gap_interpolation_applied(small_cfg):
    synth = generate_dataset(small_cfg.synth_config())
    run = synth[0].run
    assert not run.valid.all()  # dropout_prob default > 0 left some gaps
    ds = pl.materialize_dataset([(s.run, s.events) for s in synth], small_cfg)
    assert np.isfinite(ds.X).all()
