"""Byte-mutation fuzzing of the file readers: whatever bytes a valid file is
mutated into, its reader returns or raises a StrokedetError, nothing else."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet import labels as lb
from strokedet import pipeline as pl
from strokedet import postprocess as pp
from strokedet import runs as rn
from strokedet.errors import DataError, StrokedetError
from strokedet.labels import ENDING, ONSET, EventLabel
from strokedet.postprocess import Detection
from strokedet.weights_io import load_arrays, save_arrays


def _weights(path):
    save_arrays(path, {
        "layer00.gru.W": np.arange(6.0).reshape(2, 3),
        "bias": np.float32([0.5, -1.0]),
        "scalar": np.array(2.0),
    })


def _events(path):
    lb.write_events_jsonl(path, [EventLabel(3, ONSET), EventLabel(40, ENDING)])


def _detections(path):
    pp.write_detections_jsonl(path, [
        ("run0:0", [Detection(3, ONSET, 0.9), Detection(40, ENDING, -0.5)]),
        ("run0:100", []),
    ])


def _run_csv(path):
    run = rn.RawRun("0", "1", "canoe", [0.1, 0.5, float("nan"), 0.25], [1, 1, 0, 1])
    rn.write_run_csv(run, path.parent)


def _split(path):
    plan = rn.SplitPlan({"a": "fold0", "b": "fold1", "c": "holdout"}, seed=3, n_folds=2)
    rn.write_split_json(plan, path)


# name -> (file name, writer of a valid file, reader)
READERS = {
    "weights": ("w.bin", _weights, load_arrays),
    "events": ("e.events.jsonl", _events, lb.read_events_jsonl),
    "detections": ("d.jsonl", _detections, pp.read_detections_jsonl),
    "run_csv": ("run0_ath1.csv", _run_csv, rn.read_run_csv),
    "split": ("split.json", _split, rn.read_split_json),
}

_OPS = ("replace", "insert", "delete", "truncate")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """name -> (path of a valid file, its bytes)."""
    files = {}
    for name, (file_name, write, _) in READERS.items():
        path = tmp_path_factory.mktemp(name) / file_name
        write(path)
        files[name] = path, path.read_bytes()
    return files


def mutate(blob: bytes, ops) -> bytes:
    b = bytearray(blob)
    for op, pos, value in ops:
        pos = min(pos, len(b))
        if op == "insert":
            b.insert(pos, value)
        elif op == "truncate":
            del b[pos:]
        elif pos < len(b):
            if op == "replace":
                b[pos] = value
            else:
                del b[pos]
    return bytes(b)


@pytest.mark.parametrize("reader", list(READERS))
def test_valid_file_reads(valid_files, reader):
    READERS[reader][2](valid_files[reader][0])


@pytest.mark.parametrize("reader", list(READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_raises_only_strokedet_errors(valid_files, reader, data):
    path, blob = valid_files[reader]
    # bytes drawn from anywhere, or from the file's own bytes (digits, quotes,
    # braces, separators), which keep more mutants close to parsing
    byte = st.integers(0, 255) | st.sampled_from(sorted(set(blob)))
    ops = data.draw(st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, len(blob)), byte),
                             min_size=1, max_size=6))
    path.write_bytes(mutate(blob, ops))
    try:
        READERS[reader][2](path)
    except StrokedetError:
        pass
    finally:
        path.write_bytes(blob)


_DEEP = "[" * 100_000 + "]" * 100_000
_LONG_INT = "9" * 5000
_SPLIT_KEYS = '"n_folds": 2, "assignments": {"a": "fold0", "b": "fold1"}'


# what byte mutation of the small files above does not reach: infinite and
# over-long numbers, and nesting deeper than the JSON decoder's recursion limit
@pytest.mark.parametrize("reader, text", [
    ("split", '{"seed": Infinity, ' + _SPLIT_KEYS + "}"),
    ("split", '{"seed": 1e999, ' + _SPLIT_KEYS + "}"),
    ("split", '{"seed": 0, "n_folds": -Infinity, "assignments": {"a": "fold0", "b": "fold1"}}'),
    ("split", '{"seed": ' + _LONG_INT + ", " + _SPLIT_KEYS + "}"),
    ("split", '{"seed": 0, ' + _SPLIT_KEYS + ', "x": ' + _DEEP + "}"),
    ("events", '{"frame": "run"}\n{"t": ' + _LONG_INT + ', "kind": "onset"}\n'),
    ("events", '{"frame": "run"}\n' + _DEEP + "\n"),
    ("detections", '{"window": "a"}\n{"t": 1, "kind": "onset", "score": ' + _LONG_INT + "}\n"),
    ("detections", _DEEP + "\n"),
], ids=["split-inf-seed", "split-1e999-seed", "split-inf-folds", "split-long-seed", "split-deep",
        "events-long-t", "events-deep", "detections-long-score", "detections-deep"])
def test_crafted_file_is_a_data_error(tmp_path, reader, text):
    path = tmp_path / READERS[reader][0]
    path.write_text(text)
    with pytest.raises(DataError):
        READERS[reader][2](path)


@pytest.mark.parametrize("text", [_DEEP, '{"files": ' + _DEEP + "}"], ids=["deep", "deep-files"])
def test_deep_manifest_is_a_data_error(tmp_path, text):
    (tmp_path / pl.MANIFEST).write_text(text)
    with pytest.raises(DataError, match="not a valid manifest"):
        pl.load_runs_dir(tmp_path)


@pytest.mark.parametrize("field, value", [
    ("window_length", "Infinity"), ("window_stride", "-1e999"), ("windows", _DEEP),
], ids=["inf-length", "1e999-stride", "deep-windows"])
def test_crafted_dataset_meta_is_a_data_error(tmp_path, field, value):
    save_arrays(tmp_path / pl.DATASET_BIN, {})
    _split(tmp_path / pl.SPLIT_FILE)
    meta = {"window_length": "1000", "window_stride": "100", "windows": "[]", field: value}
    (tmp_path / pl.DATASET_META).write_text("{" + ", ".join(f'"{k}": {v}' for k, v in meta.items()) + "}")
    with pytest.raises(DataError, match="not a valid dataset meta file"):
        pl.load_dataset(tmp_path)
