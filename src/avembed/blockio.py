"""Byte layout of model and index files, and the one bounded reader of every binary file.

Reader checks each length field against the bytes left in the file before it
reads anything for it, so a corrupt length raises CorruptFileError instead of
allocating more than the file holds. Integers are little-endian:

    file header: 4-byte magic | u8 version=1 | u32 json_len | UTF-8 JSON object
    block:       u32 name_len | name utf-8 | u8 dtype code | u32 ndim | u32 dim_0.. | payload

A model file is a file header and then named blocks up to the end of the file;
an index file is a file header, one block and a JSON-lines id/label table.
dtype codes: 0 = float32, 1 = float64, 2 = int64. Payloads are row-major.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import CorruptFileError, FormatError

_DTYPE_CODES = {0: "<f4", 1: "<f8", 2: "<i8"}
_CODE_FOR_KIND = {"<f4": 0, "<f8": 1, "<i8": 2}


class Reader:
    """Reads one file front to back; take() bounds every length by the bytes left."""

    def __init__(self, path: str | Path):
        self.path = path
        self._fh = open(path, "rb")
        self.left = os.fstat(self._fh.fileno()).st_size

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise CorruptFileError(f"{self.path}: truncated {what}")
        self.left -= n
        return self._fh.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype: str, shape: Sequence[int], what: str) -> np.ndarray:
        """A read-only array of the given shape; the element count is a Python int, so it cannot wrap."""
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)


def write_array_block(fh: BinaryIO, name: str, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array)
    kind = "<i8" if arr.dtype.kind == "i" else arr.dtype.newbyteorder("<").str
    if kind not in _CODE_FOR_KIND:
        raise ValueError(f"unsupported dtype for block {name!r}: {arr.dtype}")
    raw = name.encode("utf-8")
    fh.write(struct.pack(f"<I{len(raw)}sBI", len(raw), raw, _CODE_FOR_KIND[kind], arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype(kind, copy=False).tobytes())


def read_array_block(reader: Reader) -> tuple[str, np.ndarray]:
    (name_len,) = reader.unpack("<I", "block header")
    try:
        name = reader.take(name_len, "block name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{reader.path}: block name is not valid UTF-8: {exc}") from exc
    code, ndim = reader.unpack("<BI", f"metadata of block {name!r}")
    if code not in _DTYPE_CODES:
        raise FormatError(f"{reader.path}: unknown dtype code {code} in block {name!r}")
    shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim, f"shape of block {name!r}"))
    return name, reader.array(_DTYPE_CODES[code], shape, f"payload of block {name!r}").copy()


def write_header(fh: BinaryIO, magic: bytes, header: dict) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(magic + struct.pack("<BI", 1, len(raw)) + raw)


def read_header(reader: Reader, magic: bytes) -> dict:
    got = reader.take(len(magic), "magic")
    if got != magic:
        raise FormatError(f"{reader.path}: bad magic: expected {magic!r}, got {got!r}")
    version, length = reader.unpack("<BI", "file header")
    if version != 1:
        raise FormatError(f"{reader.path}: unsupported version {version}")
    raw = reader.take(length, "header JSON")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{reader.path}: header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{reader.path}: header is a JSON {type(header).__name__}, not an object")
    return header


def save(path: str | Path, magic: bytes, header: dict, blocks: dict[str, np.ndarray]) -> None:
    """Write a model file: the header, then the blocks in the dict's order."""
    with open(path, "wb") as fh:
        write_header(fh, magic, header)
        for name, arr in blocks.items():
            write_array_block(fh, name, arr)


def load(path: str | Path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a model file: its header and every block up to the end of the file."""
    with Reader(path) as reader:
        header = read_header(reader, magic)
        blocks: dict[str, np.ndarray] = {}
        while reader.left:
            name, arr = read_array_block(reader)
            if name in blocks:
                raise FormatError(f"{path}: duplicate block {name!r}")
            blocks[name] = arr
    return header, blocks


def expect(path: str | Path, blocks: dict[str, np.ndarray], names: Sequence[str]) -> dict[str, np.ndarray]:
    """The blocks, if they are exactly the named ones; otherwise FormatError."""
    if set(blocks) != set(names):
        raise FormatError(f"{path}: expected blocks {sorted(names)}, found {sorted(blocks)}")
    return blocks
