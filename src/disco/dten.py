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

import numpy as np

from .errors import MagicMismatch, MissingFile, ShapeMismatch

DTEN_MAGIC = b"DTEN"
BUNDLE_MAGIC = b"DPAK"

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_HEADER = struct.Struct("<4sBBBBQQ")


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


def _parse_dten(buf: bytes, offset: int, name: str) -> tuple[np.ndarray, int]:
    if len(buf) - offset < _HEADER.size:
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
    start = offset + _HEADER.size
    if len(buf) - start < nbytes:
        raise MagicMismatch(f"{name}: payload shorter than dims {d0}x{d1}")
    values = np.frombuffer(buf, dtype=dt, count=d0 * d1, offset=start).reshape(d0, d1)
    return values, start + nbytes


def read_dten(path: str | Path) -> np.ndarray:
    """Read one DTEN file into a writable array that nothing else holds."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such tensor file: {path}")
    with path.open("rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]
    values, end = _parse_dten(buf, 0, str(path))  # a view of buf, not a copy
    if end != len(buf):
        raise MagicMismatch(f"{path}: {len(buf) - end} trailing bytes after the payload")
    return values


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
