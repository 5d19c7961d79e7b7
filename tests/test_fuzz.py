"""Mutation fuzzing of the file readers: whatever bytes or lines a valid file
is mutated into, its reader returns or raises a StrokedetError, nothing else."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokedet import labels as lb
from strokedet import pipeline as pl
from strokedet import postprocess as pp
from strokedet import runs as rn
from strokedet.cli import main
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


def mutate_lines(blob: bytes, ops) -> bytes:
    """`blob` with lines dropped, repeated or swapped; positions wrap around."""
    lines = blob.splitlines(keepends=True)
    for op, i, j in ops:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


def byte_ops(blob: bytes, positions=st.nothing()):
    # bytes drawn from anywhere, or from the file's own bytes (digits, quotes,
    # braces, separators), which keep more mutants close to parsing; positions
    # from anywhere, or from `positions`
    byte = st.integers(0, 255) | st.sampled_from(sorted(set(blob)))
    return st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, len(blob)) | positions, byte),
                    min_size=1, max_size=6)


def line_ops(blob: bytes):
    n = max(1, blob.count(b"\n"))
    return st.lists(st.tuples(st.sampled_from(("drop", "repeat", "swap")),
                              st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=3)


def read_mutant(read, path, blob: bytes, mutant: bytes, target=None) -> None:
    """Reads `target` (default: `path`) with `path` holding `mutant`; only a
    StrokedetError may come out. `path` gets `blob` back."""
    path.write_bytes(mutant)
    try:
        read(path if target is None else target)
    except StrokedetError:
        pass
    finally:
        path.write_bytes(blob)


@pytest.mark.parametrize("reader", list(READERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_raises_only_strokedet_errors(valid_files, reader, data):
    path, blob = valid_files[reader]
    read_mutant(READERS[reader][2], path, blob, mutate(blob, data.draw(byte_ops(blob))))


@pytest.mark.parametrize("reader", ["events", "detections", "run_csv", "split"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_line_mutated_file_raises_only_strokedet_errors(valid_files, reader, data):
    path, blob = valid_files[reader]
    read_mutant(READERS[reader][2], path, blob, mutate_lines(blob, data.draw(line_ops(blob))))


@pytest.fixture(scope="module")
def dataset_dirs(tmp_path_factory):
    """A tiny synth directory and the dataset preprocessed from it."""
    root = tmp_path_factory.mktemp("dirs")
    tiny = ["n_athletes=4", "runs_per_athlete=1", "run_duration=3", "window_length=200",
            "n_folds=2", "holdout_fraction=0.25"]
    settings_args = [arg for kv in tiny for arg in ("--set", kv)]
    assert main(["synth", "--out", str(root / "raw")] + settings_args) == 0
    assert main(["preprocess", "--data", str(root / "raw"), "--out", str(root / "data")] + settings_args) == 0
    return root / "raw", root / "data"


def test_valid_directories_read(dataset_dirs):
    raw, data = dataset_dirs
    assert len(pl.load_runs_dir(raw)) == 4 and len(pl.load_dataset(data).X) == 20


# name -> (index into `dataset_dirs`, file mutated there, reader of the directory)
DIRECTORY_FILES = {
    "manifest": (0, pl.MANIFEST, pl.load_runs_dir),
    "dataset_meta": (1, pl.DATASET_META, pl.load_dataset),
}


@pytest.mark.parametrize("mutation", ["bytes", "lines"])
@pytest.mark.parametrize("name", list(DIRECTORY_FILES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_directory_file_raises_only_strokedet_errors(dataset_dirs, name, mutation, data):
    index, file_name, read = DIRECTORY_FILES[name]
    directory = dataset_dirs[index]
    path = directory / file_name
    blob = path.read_bytes()
    if mutation == "bytes":
        mutant = mutate(blob, data.draw(byte_ops(blob)))
    else:
        mutant = mutate_lines(blob, data.draw(line_ops(blob)))
    read_mutant(read, path, blob, mutant, target=directory)


def _header_offsets(path) -> list:
    """Byte offsets of a weights container's header and of each array's."""
    offsets, offset = [0], 12
    for name, array in load_arrays(path).items():
        offsets.append(offset)
        offset += 4 + len(name.encode()) + 5 + 8 * array.ndim + array.nbytes
    return offsets


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_dataset_arrays_raise_only_strokedet_errors(dataset_dirs, data):
    # windows.bin read with the meta and split files it must agree with; most
    # of its bytes are X and Y values, so half the mutations go to the
    # container's headers (names, dtypes, ranks, dims) and the bytes after them
    directory = dataset_dirs[1]
    path = directory / pl.DATASET_BIN
    blob = path.read_bytes()
    near_header = st.builds(int.__add__, st.sampled_from(_header_offsets(path)), st.integers(0, 64))
    mutant = mutate(blob, data.draw(byte_ops(blob, near_header)))
    read_mutant(pl.load_dataset, path, blob, mutant, target=directory)


_ARRAY_EDITS = {
    "add_axis": lambda array, value: array[..., None],
    "drop_last": lambda array, value: np.atleast_1d(array)[:-1],
    "flatten": lambda array, value: array.reshape(-1),
    "scalar": lambda array, value: np.asarray(value),
    "float32": lambda array, value: array.astype(np.float32),
    "set_first": lambda array, value: np.where(np.arange(array.size).reshape(array.shape) == 0,
                                               value, array),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reshaped_dataset_arrays_raise_only_strokedet_errors(dataset_dirs, data):
    # what byte mutation seldom reaches: a well-formed container whose arrays
    # have other ranks, lengths or dtypes than X, Y and the meta file imply
    directory = dataset_dirs[1]
    path = directory / pl.DATASET_BIN
    blob = path.read_bytes()
    arrays = load_arrays(path)
    value = st.floats() | st.integers(-2, 1200).map(float)
    edits = data.draw(st.lists(st.tuples(st.sampled_from(sorted(arrays)),
                                         st.sampled_from(sorted(_ARRAY_EDITS)), value),
                               min_size=1, max_size=3))
    with np.errstate(over="ignore"):  # float32 casts of large values give inf, as wanted
        for name, edit, value in edits:
            arrays[name] = _ARRAY_EDITS[edit](arrays[name], value)
    try:
        save_arrays(path, arrays)
        pl.load_dataset(directory)
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
