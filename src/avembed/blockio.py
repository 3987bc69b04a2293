"""Length-prefixed binary array blocks used by model and index files.

Layout of one block (all integers little-endian):

    u32 name_len | name utf-8 | u8 dtype code | u32 ndim | u32 dim_0.. | payload

dtype codes: 0 = float32, 1 = float64, 2 = int64. Payloads are row-major.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO

import numpy as np

from .errors import CorruptFileError, FormatError

_DTYPE_CODES = {0: "<f4", 1: "<f8", 2: "<i8"}
_CODE_FOR_KIND = {"<f4": 0, "<f8": 1, "<i8": 2}


def write_array_block(fh: BinaryIO, name: str, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array)
    if arr.dtype == np.float32:
        arr = arr.astype("<f4", copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype("<f8", copy=False)
    elif arr.dtype.kind == "i":
        arr = arr.astype("<i8", copy=False)
    else:
        raise ValueError(f"unsupported dtype for block {name!r}: {arr.dtype}")
    code = _CODE_FOR_KIND[arr.dtype.str]
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<BI", code, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes())


def read_array_block(fh: BinaryIO) -> tuple[str, np.ndarray]:
    head = fh.read(4)
    if len(head) < 4:
        raise CorruptFileError("truncated block header")
    (name_len,) = struct.unpack("<I", head)
    try:
        name = fh.read(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"block name is not valid UTF-8: {exc}") from exc
    meta = fh.read(5)
    if len(meta) < 5:
        raise CorruptFileError(f"truncated block metadata for {name!r}")
    code, ndim = struct.unpack("<BI", meta)
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code} in block {name!r}")
    shape_raw = fh.read(4 * ndim)
    if len(shape_raw) < 4 * ndim:
        raise CorruptFileError(f"truncated shape for block {name!r}")
    shape = struct.unpack(f"<{ndim}I", shape_raw)
    dtype = np.dtype(_DTYPE_CODES[code])
    count = int(np.prod(shape)) if ndim else 1
    payload = fh.read(count * dtype.itemsize)
    if len(payload) < count * dtype.itemsize:
        raise CorruptFileError(f"truncated payload for block {name!r}")
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_header(fh: BinaryIO, magic: bytes, header: dict) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(magic)
    fh.write(struct.pack("<BI", 1, len(raw)))
    fh.write(raw)


def read_header(fh: BinaryIO, magic: bytes) -> dict:
    got = fh.read(4)
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
    meta = fh.read(5)
    if len(meta) < 5:
        raise CorruptFileError("truncated file header")
    version, length = struct.unpack("<BI", meta)
    if version != 1:
        raise FormatError(f"unsupported version {version}")
    raw = fh.read(length)
    if len(raw) < length:
        raise CorruptFileError("truncated header JSON")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"header is a JSON {type(header).__name__}, not an object")
    return header


def read_blocks(fh: BinaryIO, count: int) -> dict[str, np.ndarray]:
    return dict(read_array_block(fh) for _ in range(count))
