import json
import struct
import warnings

import numpy as np
import pytest

from strokedet.errors import DataError
from strokedet.weights_io import export_json, load_arrays, save_arrays


def test_roundtrip_preserves_arrays_and_order(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "layer00.gru.W": rng.normal(size=(1, 192)),
        "layer00.gru.bu": rng.normal(size=192),
        "scalar_ish": rng.normal(size=(1,)).astype(np.float32),
        "cube": rng.normal(size=(3, 2, 4)),
    }
    path = tmp_path / "w.bin"
    save_arrays(path, arrays)
    back = load_arrays(path)
    assert list(back) == list(arrays)
    for name in arrays:
        assert back[name].dtype == arrays[name].dtype
        np.testing.assert_array_equal(back[name], arrays[name])


def test_header_layout(tmp_path):
    path = tmp_path / "w.bin"
    save_arrays(path, {"a": np.zeros(2)})
    blob = path.read_bytes()
    assert blob[:4] == b"SSNW"
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 1  # array count
    assert int.from_bytes(blob[12:16], "little") == 1  # name length
    assert blob[16:17] == b"a"
    assert blob[17] == 8  # f64 dtype code


def test_deterministic_bytes(tmp_path):
    arrays = {"x": np.arange(12.0).reshape(3, 4), "y": np.ones(5, dtype=np.float32)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_arrays(p1, arrays)
    save_arrays(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError):
        load_arrays(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_arrays(path, {"a": np.zeros(100)})
    path.write_bytes(path.read_bytes()[:-50])
    with pytest.raises(DataError):
        load_arrays(path)


def test_every_truncation_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_arrays(path, {"a": np.zeros((2, 3)), "bb": np.ones(4, dtype=np.float32)})
    blob = path.read_bytes()
    for length in range(len(blob)):
        path.write_bytes(blob[:length])
        with pytest.raises(DataError):
            load_arrays(path)


def test_an_array_name_listed_twice_is_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_arrays(path, {"a": np.zeros(())})
    blob = path.read_bytes()
    entry = blob[12:]
    path.write_bytes(blob[:8] + (2).to_bytes(4, "little") + entry + entry)
    with pytest.raises(DataError, match=r"w\.bin: array 'a' appears twice"):
        load_arrays(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(DataError):
        save_arrays(tmp_path / "w.bin", {"a": np.zeros(3, dtype=np.int32)})


def test_json_export_mirrors_content():
    arrays = {"w": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.zeros(2, dtype=np.float32)}
    payload = json.loads(export_json(arrays))
    assert payload["format"] == "SSNW" and payload["version"] == 1
    by_name = {a["name"]: a for a in payload["arrays"]}
    assert by_name["w"]["dtype"] == "f64" and by_name["w"]["shape"] == [2, 2]
    assert by_name["w"]["data"] == [1.0, 2.0, 3.0, 4.0]
    assert by_name["b"]["dtype"] == "f32"


@pytest.mark.parametrize("dims", [(2**62, 4), (2**63, 1), (2**64 - 1, 2)])
def test_dims_beyond_int64_rejected_without_wrapping(tmp_path, dims):
    # an int64 product of these dims wraps or overflows
    path = tmp_path / "w.bin"
    save_arrays(path, {"a": np.zeros((2, 3))})
    blob = bytearray(path.read_bytes())
    blob[22:38] = struct.pack("<2Q", *dims)  # after magic, version, count, name and dtype/rank
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="truncated container"):
            load_arrays(path)
