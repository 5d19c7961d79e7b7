"""Binary container for named float arrays (model weights, dataset tensors).

Layout, all integers little-endian:

    magic  b"SSNW"
    u32    format version (1)
    u32    array count
    per array:
        u32    name length in bytes, then UTF-8 name
        u8     dtype code: 4 = float32, 8 = float64
        u32    rank
        u64[]  dims
        raw row-major data

A JSON export mirrors the same content for debugging. The format is
deterministic: identical arrays in identical order produce identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"SSNW"
VERSION = 1

_DTYPE_BY_CODE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_CODE_BY_KIND = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_NAME_BY_CODE = {4: "f32", 8: "f64"}


def save_arrays(path, arrays: dict) -> None:
    """Write arrays in dict insertion order. Only f32/f64 arrays are accepted."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        code = _CODE_BY_KIND.get(arr.dtype)
        if code is None:
            raise DataError(f"array {name!r} has unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BI", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(_DTYPE_BY_CODE[code], copy=False).tobytes(order="C"))
    Path(path).write_bytes(b"".join(chunks))


def load_arrays(path) -> dict:
    """Read back a dict of arrays in file order."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read container: {exc}") from exc
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: bad magic, not a weights container")
    offset = 12
    arrays = {}
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != VERSION:
            raise DataError(f"{path}: unsupported container version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            code, rank = struct.unpack_from("<BI", blob, offset)
            offset += 5
            dims = struct.unpack_from(f"<{rank}Q", blob, offset)
            offset += 8 * rank
            dtype = _DTYPE_BY_CODE.get(code)
            if dtype is None:
                raise DataError(f"{path}: unknown dtype code {code}")
            count = math.prod(dims)  # exact: an int64 product of u64 dims can wrap
            if count * dtype.itemsize > len(blob) - offset:
                raise DataError(f"{path}: truncated container: array {name!r} of shape {dims} "
                                f"needs {count * dtype.itemsize} bytes, {len(blob) - offset} left")
            data = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            offset += count * dtype.itemsize
            if name in arrays:
                raise DataError(f"{path}: array {name!r} appears twice")
            arrays[name] = data.reshape(dims).copy()
    except (struct.error, ValueError) as exc:
        raise DataError(f"{path}: truncated container: {exc}") from exc
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes")
    return arrays


def export_json(arrays: dict) -> str:
    payload = {
        "format": MAGIC.decode("ascii"),
        "version": VERSION,
        "arrays": [
            {
                "name": name,
                "dtype": _NAME_BY_CODE[_CODE_BY_KIND[np.ascontiguousarray(a).dtype]],
                "shape": list(np.asarray(a).shape),
                "data": np.asarray(a).reshape(-1).tolist(),
            }
            for name, a in arrays.items()
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_arrays_json(path, arrays: dict) -> None:
    Path(path).write_text(export_json(arrays))
