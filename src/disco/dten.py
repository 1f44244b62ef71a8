"""Binary tensor files (DTEN) and the multi-array bundle built on them.

DTEN layout, little-endian throughout, no compression:

    magic   4 bytes  b"DTEN"
    version u8       1
    dtype   u8       0 = float32, 1 = float64
    ndim    u8       2
    pad     u8       0
    dims    2 x u64
    payload row-major values

Prediction tensors on disk always use dtype 0.  Dtype 1 exists so that
derived artifacts (predictors, projections) round-trip without losing
precision.

A bundle file stores a JSON header followed by consecutive DTEN blocks:

    magic   4 bytes  b"DPAK"
    version u8       1
    pad     3 bytes  zeros
    hlen    u32      header length in bytes
    header  UTF-8 JSON; its "blocks" key lists block names in file order
    blocks  one DTEN record per name
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import MagicMismatch, MissingFile, SchemaError, ShapeMismatch

DTEN_MAGIC = b"DTEN"
BUNDLE_MAGIC = b"DPAK"

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_HEADER = struct.Struct("<4sBBBBQQ")
PAYLOAD_START = _HEADER.size  # byte offset of a DTEN file's payload
_INTP_MAX = int(np.iinfo(np.intp).max)


def dten_bytes(values: np.ndarray) -> bytes:
    """Serialize a 2-D float array to canonical DTEN bytes."""
    arr = np.ascontiguousarray(values)
    if arr.ndim != 2:
        raise ShapeMismatch(f"DTEN stores 2-D arrays, got ndim={arr.ndim}")
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ShapeMismatch(f"unsupported dtype {arr.dtype}; use float32 or float64")
    head = _HEADER.pack(DTEN_MAGIC, 1, code, 2, 0, arr.shape[0], arr.shape[1])
    return head + arr.astype(_DTYPES[code], copy=False).tobytes(order="C")


def write_dten(path: str | Path, values: np.ndarray) -> None:
    Path(path).write_bytes(dten_bytes(values))


def _check_header(buf: bytes, offset: int, available: int,
                  name: str) -> tuple[np.dtype, tuple[int, int], int]:
    """Check the DTEN header at ``buf[offset:]`` and that the ``available``
    bytes from ``offset`` on hold its payload.  Return the payload's dtype,
    dims and size in bytes.  ``buf`` need hold no more than the header."""
    if min(available, len(buf) - offset) < _HEADER.size:
        raise MagicMismatch(f"{name}: truncated DTEN header")
    magic, version, dtype, ndim, pad, d0, d1 = _HEADER.unpack_from(buf, offset)
    if magic != DTEN_MAGIC:
        raise MagicMismatch(f"{name}: bad magic {magic!r}, expected {DTEN_MAGIC!r}")
    if version != 1:
        raise MagicMismatch(f"{name}: unsupported DTEN version {version}")
    if dtype not in _DTYPES:
        raise MagicMismatch(f"{name}: unknown dtype code {dtype}")
    if ndim != 2 or pad != 0:
        raise MagicMismatch(f"{name}: malformed header (ndim={ndim}, pad={pad})")
    dt = _DTYPES[dtype]
    nbytes = d0 * d1 * dt.itemsize
    if available - _HEADER.size < nbytes:
        raise MagicMismatch(f"{name}: payload shorter than dims {d0}x{d1}")
    # an empty payload still needs dims numpy can index
    if max(d0, d1) > _INTP_MAX // dt.itemsize:
        raise MagicMismatch(f"{name}: dims {d0}x{d1} are too large for an array")
    return dt, (d0, d1), nbytes


def _parse_dten(buf: bytes, offset: int, name: str) -> tuple[np.ndarray, int]:
    dt, dims, nbytes = _check_header(buf, offset, len(buf) - offset, name)
    start = offset + _HEADER.size
    values = np.frombuffer(buf, dtype=dt, count=dims[0] * dims[1], offset=start)
    return values.reshape(dims), start + nbytes


def open_dten(path: str | Path) -> tuple[BinaryIO, np.dtype, tuple[int, int]]:
    """Open a DTEN file unbuffered and check its header, and that the file
    holds its payload and nothing after it.  Return the open file, which the
    caller closes, and the payload's dtype and dims.  The payload starts at
    byte ``PAYLOAD_START``."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise MissingFile(f"no such tensor file: {path}")
    f = open(path, "rb", buffering=0)
    try:
        size = os.fstat(f.fileno()).st_size
        dt, dims, nbytes = _check_header(f.read(_HEADER.size), 0, size, path)
        if size - _HEADER.size != nbytes:
            raise MagicMismatch(f"{path}: {size - _HEADER.size - nbytes} trailing bytes "
                                f"after the payload")
    except BaseException:
        f.close()
        raise
    return f, dt, dims


def read_into(f: BinaryIO, out: np.ndarray, offset: int) -> None:
    """Fill the C-contiguous array ``out`` with the bytes of the file
    ``open_dten`` opened from ``offset`` on.  MagicMismatch if the file ends
    first, as it does when it shrank after ``open_dten`` checked its size."""
    raw = out.reshape(-1).view(np.uint8)
    f.seek(offset)
    done = 0
    while done < raw.size:
        got = f.readinto(raw[done:])
        if not got:
            raise MagicMismatch(f"{f.name}: file ends {raw.size - done} bytes short of "
                                f"its payload; it changed while being read")
        done += got


def bundle_bytes(header: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays plus a JSON header into one bundle."""
    head = dict(header)
    head["blocks"] = list(arrays)
    hjson = json.dumps(head, separators=(",", ":"), sort_keys=True).encode()
    out = [BUNDLE_MAGIC, bytes([1, 0, 0, 0]), struct.pack("<I", len(hjson)), hjson]
    for name in arrays:
        out.append(dten_bytes(arrays[name]))
    return b"".join(out)


def write_bundle(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    Path(path).write_bytes(bundle_bytes(header, arrays))


def read_bundle(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such bundle file: {path}")
    buf = path.read_bytes()
    if len(buf) < 12 or buf[:4] != BUNDLE_MAGIC:
        raise MagicMismatch(f"{path}: not a bundle file")
    if buf[4] != 1:
        raise MagicMismatch(f"{path}: unsupported bundle version {buf[4]}")
    (hlen,) = struct.unpack_from("<I", buf, 8)
    try:
        header = json.loads(buf[12:12 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MagicMismatch(f"{path}: corrupt bundle header: {e}") from e
    blocks = header.get("blocks", []) if isinstance(header, dict) else None
    if not isinstance(blocks, list):
        raise MagicMismatch(f"{path}: bundle header is not an object with a list of block names")
    arrays: dict[str, np.ndarray] = {}
    offset = 12 + hlen
    for name in blocks:
        values, offset = _parse_dten(buf, offset, f"{path}[{name}]")
        arrays[name] = values.copy()
    if offset != len(buf):
        raise MagicMismatch(f"{path}: {len(buf) - offset} trailing bytes after the last block")
    return header, arrays


def bundle_block(arrays: dict[str, np.ndarray], name: str, where: str,
                 shape: tuple[int | None, int | None]) -> np.ndarray:
    """Block ``name`` of a read bundle, as float64.

    Raises SchemaError unless the block exists, is non-empty, holds only
    finite values and has ``shape`` (None matches any length).
    """
    if name not in arrays:
        raise SchemaError(f"{where}: bundle has no {name} block")
    block = arrays[name]
    if block.size == 0 or any(want is not None and got != want
                              for got, want in zip(block.shape, shape)):
        want = "x".join("n" if w is None else str(w) for w in shape)
        raise SchemaError(f"{where}: {name} block has shape {block.shape}, "
                          f"expected {want}")
    if not np.isfinite(block).all():
        raise SchemaError(f"{where}: {name} block has a non-finite entry")
    return block.astype(np.float64, copy=False)
