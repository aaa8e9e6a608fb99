"""The one binary container behind every artifact file.

Layout, little-endian throughout::

    magic
    u64 array count
    per array: u64 name length, name (UTF-8), dtype (b"f8" or b"i8"),
               u64 ndim, ndim x u64 dims, data (row-major)
    u32 CRC32 of every byte before it

:func:`read_arrays` checks every count and dimension against the bytes left
in the file before it allocates anything, and checks the arrays against the
names, dtypes and shapes its caller requires.  Every failure, from a bad
magic to a missing array, raises :class:`FormatError`.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

_DTYPES = {b"f8": np.dtype("<f8"), b"i8": np.dtype("<i8")}
_MAX_NDIM = 32                  # the smallest limit of supported NumPy versions
_U64 = struct.Struct("<Q")
_CRC = struct.Struct("<I")


class FormatError(ValueError):
    """Bad magic, or a truncated, corrupt or inconsistent binary file."""


def write_arrays(path, magic: bytes, arrays: dict) -> None:
    """Write named float or integer arrays, in the order given, then a checksum."""
    crc = 0
    with open(path, "wb") as fh:

        def put(chunk):
            nonlocal crc
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)

        put(magic)
        put(_U64.pack(len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            code = {"f": b"f8", "i": b"i8", "u": b"i8"}.get(arr.dtype.kind)
            if code is None:
                raise TypeError(f"array {name!r}: cannot store dtype {arr.dtype}")
            raw = name.encode("utf-8")
            head = f"<Q{len(raw)}s2s{1 + arr.ndim}Q"
            put(struct.pack(head, len(raw), raw, code, arr.ndim, *arr.shape))
            put(np.ascontiguousarray(arr.astype(_DTYPES[code], casting="safe", copy=False)))
        fh.write(_CRC.pack(crc))


def read_arrays(path, magic: bytes, required: dict, extra: bool = False) -> dict:
    """Read a container and check it against ``required``.

    ``required`` maps each array name to ``(dtype, shape)``: ``dtype`` is
    ``"f8"`` or ``"i8"``; ``shape`` is None for any shape, or a tuple whose
    entries are fixed sizes or symbols, a symbol taking the same size
    wherever it appears.  Arrays not named there are rejected unless
    ``extra`` is set.
    """
    data = Path(path).read_bytes()
    found = data[: len(magic)]
    if found != magic:
        raise FormatError(f"{path}: bad magic: expected {magic!r}, found {found!r}")
    cur = _Cursor(data, len(magic), max(len(magic), len(data) - _CRC.size), path)
    count = cur.u64("array count")
    if count * 18 > cur.left:           # name length, dtype and ndim at least
        raise FormatError(f"{path}: {count} arrays cannot fit in {cur.left} bytes")
    entries = {}
    for _ in range(count):
        raw = cur.take(cur.u64("name length"), "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: array name {raw!r} is not UTF-8") from exc
        if name in entries:
            raise FormatError(f"{path}: duplicate array {name!r}")
        code = cur.take(2, f"dtype of {name!r}")
        if code not in _DTYPES:
            raise FormatError(f"{path}: array {name!r} has unknown dtype {code!r}")
        ndim = cur.u64(f"ndim of {name!r}")
        if ndim > _MAX_NDIM:
            raise FormatError(f"{path}: array {name!r} has {ndim} dimensions")
        dims = struct.unpack(f"<{ndim}Q", cur.take(8 * ndim, f"dims of {name!r}"))
        # an empty array needs no data, so its dims are bounded by the file
        if any(d > len(data) for d in dims):
            raise FormatError(f"{path}: array {name!r} has dims {dims} beyond the file size")
        entries[name] = (code, dims, cur.skip(math.prod(dims) * 8, f"data of {name!r}"))
    if cur.left:
        raise FormatError(f"{path}: {cur.left} trailing bytes")
    stored = _CRC.unpack_from(data, cur.end)[0]
    if zlib.crc32(memoryview(data)[: cur.end]) != stored:
        raise FormatError(f"{path}: checksum mismatch")
    arrays = {
        name: np.frombuffer(data, _DTYPES[code], math.prod(dims), start).reshape(dims).copy()
        for name, (code, dims, start) in entries.items()
    }
    check_arrays(path, arrays, required, extra)
    return arrays


class _Cursor:
    """Position in the bytes before the checksum; every read is bounds-checked."""

    def __init__(self, data: bytes, pos: int, end: int, path):
        self.data, self.pos, self.end, self.path = data, pos, end, path

    @property
    def left(self) -> int:
        return self.end - self.pos

    def skip(self, n: int, what: str) -> int:
        """Step over ``n`` bytes; returns where they start."""
        if n > self.left:
            raise FormatError(f"{self.path}: truncated file ({what}: {n} bytes, {self.left} left)")
        self.pos += n
        return self.pos - n

    def take(self, n: int, what: str) -> bytes:
        return self.data[self.skip(n, what) : self.pos]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(_U64.size, what))[0]


def check_arrays(path, arrays: dict, required: dict, extra: bool = False) -> None:
    """Check arrays read from ``path`` against ``required``, as :func:`read_arrays` does.

    For a file whose layout is described by one of its own arrays: read it
    with ``extra`` set, then check the rest against the layout it gives.
    """
    missing = [name for name in required if name not in arrays]
    if missing:
        raise FormatError(f"{path}: missing arrays {missing}")
    unexpected = [name for name in arrays if name not in required]
    if unexpected and not extra:
        raise FormatError(f"{path}: unexpected arrays {unexpected}")
    sizes = {}
    for name, (dtype, shape) in required.items():
        code, dims = arrays[name].dtype.str[1:], arrays[name].shape
        if code != dtype:
            raise FormatError(f"{path}: array {name!r} is {code}, expected {dtype}")
        if shape is None:
            continue
        if len(dims) != len(shape) or dims != tuple(
            sizes.setdefault(s, d) if isinstance(s, str) else s for s, d in zip(shape, dims)
        ):
            raise FormatError(f"{path}: array {name!r} has shape {dims}, expected {shape}")


def text_array(text: str) -> np.ndarray:
    """A string as an integer array of its UTF-8 bytes."""
    return np.array(list(text.encode("utf-8")), dtype=np.int64)


def array_text(arr: np.ndarray) -> str:
    """Inverse of :func:`text_array`."""
    if arr.ndim != 1 or np.any((arr < 0) | (arr > 255)):
        raise FormatError("stored text is not a byte string")
    try:
        return arr.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("stored text is not UTF-8") from exc
