"""Byte layout of model and index files, the one bounded reader of every binary
file, and the one reader and field check of every JSON artifact.

Reader checks each length field against the bytes left in the file before it
reads anything for it, so a corrupt length raises CorruptFileError instead of
allocating more than the file holds, and bytes left after the last field are
corrupt too. A payload is read into memory of its own, or into a Buffer that
many reads share. Integers are little-endian:

    file header: 4-byte magic | u8 version=1 | u32 json_len | UTF-8 JSON object
    block:       u32 name_len | name utf-8 | u8 dtype code | u32 ndim | u32 dim_0.. | payload

A model file is a file header and then named blocks up to the end of the file;
an index file is a file header, one block and an id table: the JSON-lines
{video_id, label} table that is an assignments file on its own, each video_id
once.
dtype codes: 0 = float32, 1 = float64, 2 = int64. Payloads are row-major, and a
float payload holding NaN or Inf is corrupt.

all_finite is the one finite check of a float array: of a payload here, of FVSQ
frames (data.FeatureSequence), of the views a CCA fit takes and of attention
weights and scores. It takes the BLAS dot of the payload with itself: every
square is >= 0, so a NaN or an infinity makes the dot NaN or +inf, and a finite
dot proves every value finite at about the cost of one read of the memory. Only
a dot that is not finite, which finite values whose squares overflow also give,
pays for the exact elementwise np.isfinite.

JSON artifacts are UTF-8 and hold one object per file (read_json_object) or
one per non-blank line (iter_json_lines); field() types a value of one.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import CorruptFileError, FormatError, ValidationError

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

    def __exit__(self, exc_type, *exc) -> None:
        self._fh.close()
        if exc_type is None and self.left:
            raise CorruptFileError(f"{self.path}: {self.left} trailing bytes")

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise CorruptFileError(f"{self.path}: truncated {what}")
        self.left -= n
        return self._fh.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype: str, shape: Sequence[int], what: str, into: Buffer | None = None) -> np.ndarray:
        """The next payload as an array of the given shape, in memory of its own or, read-only, in
        into's, where the next read into it overwrites it. The element count is a Python int, so it
        cannot wrap."""
        dtype = np.dtype(dtype)
        n = math.prod(shape) * dtype.itemsize
        if n > self.left:
            raise CorruptFileError(f"{self.path}: truncated {what}")
        try:
            array = np.empty(shape, dtype) if into is None else into.take(n).view(dtype).reshape(shape)
        except ValueError as exc:  # more than numpy's 64 dims, or a zero-size shape too large to index
            raise CorruptFileError(f"{self.path}: {what} has an impossible shape") from exc
        self.left -= n
        if self._fh.readinto(array.reshape(-1).view(np.uint8)) != n:
            raise CorruptFileError(f"{self.path}: truncated {what}")
        if into is not None:
            array.flags.writeable = False
        return array


class Buffer:
    """Memory that Reader.array reads payloads into, replaced by a larger one when a payload does
    not fit and otherwise reused, so that reading many files of about one size allocates once."""

    def __init__(self):
        self._memory = np.empty(0, np.uint8)

    def take(self, n: int) -> np.ndarray:
        """The first n bytes."""
        if n > self._memory.size:
            # exactly n: doubling read about 1 MB more peak RSS over a 100-query perfbench unit (2-vCPU Xeon)
            self._memory = np.empty(n, np.uint8)
        return self._memory[:n]


def all_finite(array: np.ndarray) -> bool:
    """Whether every value of a float array is finite; see the module docstring."""
    flat = array.reshape(-1)
    # a finite value whose square overflows makes the dot inf, which the exact check then clears
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(flat, flat)):
            return True
    return bool(np.isfinite(flat).all())


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
    array = reader.array(_DTYPE_CODES[code], shape, f"payload of block {name!r}")
    if array.dtype.kind == "f" and not all_finite(array):
        raise CorruptFileError(f"{reader.path}: block {name!r} holds NaN or Inf")
    return name, array


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
    return read_json_object(reader.path, "header", reader.take(length, "header JSON"))


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


def _json_object(path: str | Path, line_no: int, what: str, raw: bytes) -> dict:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line_no += raw.count(b"\n", 0, exc.start)
        raise FormatError(f"{path}:{line_no}: invalid {what}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{line_no + exc.lineno - 1}: invalid {what}: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the parser recurses
        raise FormatError(f"{path}:{line_no}: invalid {what}: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}:{line_no}: {what} is a JSON {type(obj).__name__}, not an object")
    return obj


def read_json_object(path: str | Path, what: str, raw: bytes | None = None) -> dict:
    """The JSON object in raw, or in the file at path when raw is None; FormatError naming path:line otherwise."""
    return _json_object(path, 1, what, Path(path).read_bytes() if raw is None else raw)


def iter_json_lines(path: str | Path, what: str, raw: bytes | None = None) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of raw, or of the file at path when raw is None."""
    lines = (Path(path).read_bytes() if raw is None else raw).splitlines()
    for line_no, line in enumerate(lines, 1):
        if line.strip():
            yield line_no, _json_object(path, line_no, what, line)


def id_table(ids: Sequence[str], labels: Sequence[int]) -> bytes:
    """The JSON-lines {video_id, label} table of index and assignments files."""
    if len(ids) != len(labels):
        raise ValueError("video_ids and labels must align")
    return "".join(json.dumps({"video_id": v, "label": int(lab)}) + "\n" for v, lab in zip(ids, labels)).encode()


def read_id_table(path: str | Path, what: str, raw: bytes | None = None) -> dict[str, int]:
    """video_id -> label of an id table, in file order; a repeated video_id is a ValidationError."""
    table: dict[str, int] = {}
    for line_no, obj in iter_json_lines(path, what, raw):
        where = f"{path}:{line_no}: {what}"
        vid = field(obj, "video_id", str, where)
        if vid in table:
            raise ValidationError(f"{where} repeats video_id {vid!r}")
        table[vid] = label_field(obj, where)
    return table


def label_field(obj: dict, where: str, nullable: bool = False) -> int | None:
    """obj["label"] as an int that fits int64, else FormatError; labels are stored and ranked as int64."""
    label = field(obj, "label", int, where, nullable)
    if label is not None and not -(2**63) <= label < 2**63:
        raise FormatError(f"{where} key 'label' must fit int64, got {label}")
    return label


# the kind of a field that holds a JSON list, nested or not, of numbers
NUMBERS = "an array of numbers"


def _finite_number(value) -> bool:
    """Whether a JSON value is a finite number that float64 holds: RFC 8259 has no NaN or Infinity,
    but json.loads reads them as floats, and an int may lie beyond float64's range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _float_array(value) -> np.ndarray | None:
    """A JSON list of finite numbers, nested to any regular shape, as a float64 array; None for anything else."""
    if type(value) is not list:
        return None
    try:
        array = np.array(value, dtype=object)
    except ValueError:  # a ragged nesting numpy cannot hold
        return None
    # reshape, not .flat: numpy's flat iterator raises RuntimeError beyond 32 dims, and a list
    # may nest up to numpy's 64
    return array.astype(np.float64) if all(_finite_number(v) for v in array.reshape(-1)) else None


def field(obj: dict, key: str, kind, where: str, nullable: bool = False):
    """obj[key] as kind (int, float, str, dict, NUMBERS, or a tuple of allowed values), else FormatError.

    Types are exact, so bool is never an int; a float field takes a finite int or float, as
    each element of a NUMBERS field does, which reads as a float64 array. A nullable field may
    also be null or absent, and then reads as None.
    """
    value = obj.get(key)
    if value is None and nullable:
        return value
    if kind is float:
        if _finite_number(value):
            return float(value)
    elif type(value) is kind:
        return value
    if isinstance(kind, tuple) and value in kind:
        return value
    if kind is NUMBERS and (array := _float_array(value)) is not None:
        return array
    if key not in obj:
        raise FormatError(f"{where} lacks key {key!r}")
    expected = f"one of {list(kind)}" if isinstance(kind, tuple) else getattr(kind, "__name__", kind)
    if kind is float:
        expected += " (a finite number)"
    if nullable:
        expected += " or null"
    shown = json.dumps(value)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    raise FormatError(f"{where} key {key!r} must be {expected}, got {shown}")


def check_dims(arrays: dict[str, tuple]) -> None:
    """ValueError unless each named (array, axes) has one dimension per axis label, each label one size.

    The message names the first array that disagrees and, for a size, the array before it
    that set that axis.
    """
    size: dict = {}  # axis label -> (its size, the array that set it)
    for name, (array, axes) in arrays.items():
        shape = np.shape(array)
        if len(shape) != len(axes):
            raise ValueError(f"{name} of shape {shape} does not fit the other arrays: it needs {len(axes)} axes")
        for a, n in zip(axes, shape):
            want, setter = size.setdefault(a, (n, name))
            if want != n:
                raise ValueError(
                    f"{name} of shape {shape} does not fit the other arrays: {setter} set axis {a} to {want}"
                )
