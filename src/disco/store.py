"""Dataset registry: manifest JSON, prediction tensors, correctness, accuracy.

A benchmark directory holds one ``manifest.json`` plus one DTEN file per
registered model.  The manifest is canonical JSON: fixed key order, 2-space
indent, trailing newline, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dten
from .errors import (
    EmptyDataset,
    InvariantViolation,
    MagicMismatch,
    MissingFile,
    RowSumOutOfTolerance,
    SchemaError,
    ShapeMismatch,
)

ROW_SUM_TOLERANCE = 1e-4

_MANIFEST_KEYS = (
    "benchmark_name",
    "num_samples",
    "num_classes",
    "labels",
    "task_tags",
    "models",
    "format_version",
)
_MODEL_KEYS = ("model_id", "release_date", "true_accuracy", "tensor_path")


@dataclass
class ModelMeta:
    model_id: str
    release_date: _dt.date
    true_accuracy: float | None
    tensor_path: str


@dataclass
class BenchmarkManifest:
    benchmark_name: str
    num_samples: int
    num_classes: int
    labels: np.ndarray
    task_tags: list[str]
    models: list[ModelMeta]
    format_version: int = 1
    # directory used to resolve relative tensor paths; not serialized
    base_dir: Path | None = field(default=None, compare=False)

    def model(self, model_id: str) -> ModelMeta:
        for m in self.models:
            if m.model_id == model_id:
                return m
        raise InvariantViolation(f"model id not registered: {model_id!r}")

    def model_ids(self) -> list[str]:
        return [m.model_id for m in self.models]

    def validate(self) -> None:
        if self.num_samples < 1:
            raise InvariantViolation("num_samples must be positive")
        if self.num_classes < 1:
            raise InvariantViolation("num_classes must be positive")
        labels = np.asarray(self.labels)
        if labels.shape != (self.num_samples,):
            raise InvariantViolation(
                f"labels has {labels.shape[0]} entries, expected {self.num_samples}")
        bad = np.nonzero((labels < 0) | (labels >= self.num_classes))[0]
        if bad.size:
            i = int(bad[0])
            raise InvariantViolation(
                f"label out of range at index {i}: {int(labels[i])} not in [0, {self.num_classes})")
        if len(self.task_tags) != self.num_samples:
            raise InvariantViolation(
                f"task_tags has {len(self.task_tags)} entries, expected {self.num_samples}")
        seen: set[str] = set()
        for m in self.models:
            if m.model_id in seen:
                raise InvariantViolation(f"duplicate model_id: {m.model_id!r}")
            seen.add(m.model_id)
            if m.true_accuracy is not None and not 0.0 <= m.true_accuracy <= 1.0:
                raise InvariantViolation(
                    f"true_accuracy of {m.model_id!r} outside [0,1]: {m.true_accuracy}")


@dataclass
class PredictionTensor:
    """One model's class-probability matrix, float32 rows over the benchmark."""

    model_id: str
    values: np.ndarray  # (N, C) float32, rows renormalized

    @classmethod
    def from_values(cls, model_id: str, values: np.ndarray) -> "PredictionTensor":
        """Validate raw probabilities and renormalize rows.

        Entries must lie in [0,1] and each row must sum to 1 within
        ROW_SUM_TOLERANCE.  Rows are then renormalized toward a float32 fixed
        point (see ``_renormalize_rows``).  The result depends only on the
        input bits, so a given file always loads to the same values.  The
        caller's array is never modified.
        """
        return cls._adopt(model_id, np.array(values, dtype=np.float32, order="C"))

    @classmethod
    def _adopt(cls, model_id: str, arr: np.ndarray) -> "PredictionTensor":
        """``from_values`` for a float32 C-contiguous array that nothing else
        holds: its rows are checked and renormalized in place, one chunk of
        ``_CHUNK_BYTES`` at a time."""
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensor for {model_id!r} must be 2-D, got ndim={arr.ndim}")
        faults = _RowFaults()
        step = _chunk_rows(arr.shape[1])
        for lo in range(0, arr.shape[0], step):
            _ingest_rows(arr[lo:lo + step], lo, faults)
        faults.raise_for(model_id)
        return cls(model_id, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _renormalize_rows(arr: np.ndarray, wide: np.ndarray, sums: np.ndarray) -> None:
    """Divide each row by its float64 sum and round to float32, in place.

    ``wide`` is ``arr.astype(np.float64)``, which this overwrites, and
    ``sums`` its row sums.  A row stops at a float32 fixed point, once a pass
    leaves its bits unchanged (as it does when the row sums to exactly 1.0),
    or after 8 passes.  Rows do not interact, so after the first pass only
    the rows still moving are recomputed.  Some rows still move after the
    8th pass, even at 4 classes, so saving a loaded tensor and loading it
    again can change those rows: pipelines only ever read tensors from
    files.
    """
    wide /= sums[:, None]
    new = wide.astype(np.float32)
    idx = np.flatnonzero((new != arr).any(axis=1))
    rows = new[idx]
    for _ in range(7):
        if idx.size == 0:
            break
        arr[idx] = rows
        # cast, then sum, as for the first pass's sums: sum(dtype=float64)
        # may add the entries of a long row in a different order
        x = rows.astype(np.float64)
        new = (x / x.sum(axis=1)[:, None]).astype(np.float32)
        moved = (new != rows).any(axis=1)
        idx, rows = idx[moved], new[moved]
    arr[idx] = rows


# Bytes of float32 rows checked at once on load: the float64 working copy is
# twice that, however many samples the tensor has.
_CHUNK_BYTES = 1 << 19


def _chunk_rows(c: int) -> int:
    """Rows of ``c`` classes in one ingest chunk; at least one."""
    return max(1, _CHUNK_BYTES // (4 * max(c, 1)))


class _RowFaults:
    """What the load checks found in one tensor's rows, chunk by chunk in
    row order.  ``raise_for`` raises the error a whole-tensor check would:
    a non-finite entry anywhere first, then the first entry outside [0,1] in
    row-major order, then the row whose sum is furthest from 1 (the first
    such row on ties)."""

    def __init__(self) -> None:
        self.nonfinite = False
        self.outside: tuple | None = None  # (row, column, value)
        self.worst: tuple | None = None    # (|sum - 1|, row, sum)

    def __bool__(self) -> bool:
        return self.nonfinite or self.outside is not None or self.worst is not None

    def raise_for(self, model_id: str) -> None:
        if self.nonfinite:
            raise InvariantViolation(f"tensor for {model_id!r} contains non-finite entries")
        if self.outside is not None:
            i, c, value = self.outside
            raise InvariantViolation(
                f"tensor for {model_id!r} has entry outside [0,1] at ({i},{c}): {value}")
        if self.worst is not None:
            _, i, total = self.worst
            raise RowSumOutOfTolerance(
                f"tensor for {model_id!r} row {i} sums to {total:.6f}, "
                f"outside 1 +/- {ROW_SUM_TOLERANCE}")


def _check_rows(rows: np.ndarray, row0: int,
                faults: _RowFaults) -> tuple[np.ndarray, np.ndarray] | None:
    """Check a float32 chunk whose first row is row ``row0`` of its tensor,
    recording what fails in ``faults``.  Entries must be finite and in
    [0,1], and each row must sum to 1 within ROW_SUM_TOLERANCE.  Return the
    chunk as float64 and its row sums, or None if the chunk failed or
    ``faults`` already holds an error that no row sum can displace."""
    if faults.nonfinite:
        return None
    if rows.size:
        low, high = rows.min(), rows.max()  # a NaN propagates to both
        if not (np.isfinite(low) and np.isfinite(high)):
            faults.nonfinite = True
            return None
        if low < 0 or high > 1:
            if faults.outside is None:
                i, c = np.argwhere((rows < 0) | (rows > 1))[0]
                faults.outside = (row0 + i, c, rows[i, c])
            return None
    if faults.outside is not None:
        return None
    wide = rows.astype(np.float64)
    sums = wide.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > ROW_SUM_TOLERANCE).any():
        i = int(np.argmax(off))
        if faults.worst is None or off[i] > faults.worst[0]:
            faults.worst = (off[i], row0 + i, sums[i])
        return None
    return wide, sums


def _ingest_rows(rows: np.ndarray, row0: int, faults: _RowFaults) -> None:
    """The ingest kernel: check a C-contiguous float32 chunk as
    ``_check_rows`` does and, if it passed, renormalize it in place.  A row
    that failed a check is never divided."""
    checked = _check_rows(rows, row0, faults)
    if checked is not None:
        _renormalize_rows(rows, *checked)


# --- manifest serialization -------------------------------------------------

def _manifest_to_obj(manifest: BenchmarkManifest) -> dict:
    return {
        "benchmark_name": manifest.benchmark_name,
        "num_samples": manifest.num_samples,
        "num_classes": manifest.num_classes,
        "labels": [int(x) for x in manifest.labels],
        "task_tags": list(manifest.task_tags),
        "models": [
            {
                "model_id": m.model_id,
                "release_date": m.release_date.isoformat(),
                "true_accuracy": m.true_accuracy,
                "tensor_path": m.tensor_path,
            }
            for m in manifest.models
        ],
        "format_version": manifest.format_version,
    }


def manifest_bytes(manifest: BenchmarkManifest) -> bytes:
    return (json.dumps(_manifest_to_obj(manifest), indent=2) + "\n").encode()


def save_manifest(manifest: BenchmarkManifest, path: str | Path) -> None:
    Path(path).write_bytes(manifest_bytes(manifest))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _manifest_from_obj(obj: dict, base_dir: Path | None) -> BenchmarkManifest:
    _require(isinstance(obj, dict), "manifest root must be a JSON object")
    extra = set(obj) - set(_MANIFEST_KEYS)
    missing = set(_MANIFEST_KEYS) - set(obj)
    _require(not extra, f"unexpected manifest keys: {sorted(extra)}")
    _require(not missing, f"missing manifest keys: {sorted(missing)}")
    _require(isinstance(obj["benchmark_name"], str), "benchmark_name must be a string")
    _require(isinstance(obj["num_samples"], int) and not isinstance(obj["num_samples"], bool),
             "num_samples must be an integer")
    _require(isinstance(obj["num_classes"], int) and not isinstance(obj["num_classes"], bool),
             "num_classes must be an integer")
    _require(isinstance(obj["labels"], list), "labels must be an array")
    for i, v in enumerate(obj["labels"]):
        _require(isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63,
                 f"labels[{i}] must be a 64-bit integer")
    _require(isinstance(obj["task_tags"], list), "task_tags must be an array")
    for i, v in enumerate(obj["task_tags"]):
        _require(isinstance(v, str), f"task_tags[{i}] must be a string")
    _require(isinstance(obj["models"], list), "models must be an array")
    _require(type(obj["format_version"]) is int and obj["format_version"] == 1,
             "format_version must be the integer 1")

    models = []
    for i, entry in enumerate(obj["models"]):
        _require(isinstance(entry, dict), f"models[{i}] must be an object")
        extra = set(entry) - set(_MODEL_KEYS)
        missing = set(_MODEL_KEYS) - set(entry)
        _require(not extra, f"models[{i}]: unexpected keys {sorted(extra)}")
        _require(not missing, f"models[{i}]: missing keys {sorted(missing)}")
        _require(isinstance(entry["model_id"], str), f"models[{i}].model_id must be a string")
        _require(isinstance(entry["release_date"], str),
                 f"models[{i}].release_date must be a string")
        acc = entry["true_accuracy"]
        _require(acc is None or type(acc) in (int, float),
                 f"models[{i}].true_accuracy must be a number or null")
        _require(isinstance(entry["tensor_path"], str),
                 f"models[{i}].tensor_path must be a string")
        try:
            date = _dt.date.fromisoformat(entry["release_date"])
        except ValueError as e:
            raise InvariantViolation(
                f"models[{i}].release_date does not parse: {entry['release_date']!r}") from e
        models.append(ModelMeta(
            model_id=entry["model_id"],
            release_date=date,
            true_accuracy=None if acc is None else float(acc),
            tensor_path=entry["tensor_path"],
        ))

    manifest = BenchmarkManifest(
        benchmark_name=obj["benchmark_name"],
        num_samples=obj["num_samples"],
        num_classes=obj["num_classes"],
        labels=np.asarray(obj["labels"], dtype=np.int64),
        task_tags=list(obj["task_tags"]),
        models=models,
        format_version=obj["format_version"],
        base_dir=base_dir,
    )
    manifest.validate()
    return manifest


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON document whose root must be an object.

    A missing file raises MissingFile; bytes that are not JSON, or a root
    that is not an object, raise SchemaError.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such {what}: {path}")
    try:
        obj = json.loads(path.read_bytes())
    except ValueError as e:  # JSONDecodeError, or bytes that are not text
        raise SchemaError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: {what} root must be a JSON object")
    return obj


def load_manifest(path: str | Path) -> BenchmarkManifest:
    path = Path(path)
    return _manifest_from_obj(read_json_object(path, "manifest"), base_dir=path.parent)


# --- tensor I/O --------------------------------------------------------------

def save_tensor(tensor: PredictionTensor, path: str | Path) -> None:
    dten.write_dten(path, tensor.values)


def _tensor_path(manifest: BenchmarkManifest, model_id: str) -> Path:
    meta = manifest.model(model_id)
    path = Path(meta.tensor_path)
    if not path.is_absolute():
        if manifest.base_dir is None:
            raise MissingFile(
                f"manifest has no base directory to resolve {meta.tensor_path!r}")
        path = manifest.base_dir / path
    return path


def _check_layout(manifest: BenchmarkManifest, path: Path, dtype: np.dtype,
                  dims: tuple[int, int]) -> None:
    if dtype != np.float32:
        raise MagicMismatch(f"{path}: prediction tensors must be float32 (dtype code 0)")
    expected = (manifest.num_samples, manifest.num_classes)
    if dims != expected:
        raise ShapeMismatch(f"{path}: expected dims {expected}, found {dims}")


def load_tensor(manifest: BenchmarkManifest, model_id: str) -> PredictionTensor:
    path = _tensor_path(manifest, model_id)
    values = dten.read_dten(path)
    _check_layout(manifest, path, values.dtype, values.shape)
    return PredictionTensor._adopt(model_id, values)


@dataclass(frozen=True)
class SampleSummary:
    """What the selectors read of one model, per sample: its correctness bit
    and its label class's probability, from its rows as loaded."""

    bits: np.ndarray          # (N,) uint8, as ``correctness`` gives them
    label_probs: np.ndarray   # (N,) float64


def _check_file(manifest: BenchmarkManifest, model_id: str, buf: np.ndarray,
                summary: SampleSummary | None = None) -> None:
    """Check the model's tensor file whole, raising what ``load_tensor``
    would, without loading it: the payload passes through ``buf``, a float32
    scratch array of at least one ingest chunk.  With ``summary``, each chunk
    is also renormalized as loading does and summarized into it."""
    path = _tensor_path(manifest, model_id)
    f, dtype, dims = dten.open_dten(path)
    with f:
        _check_layout(manifest, path, dtype, dims)
        n, c = dims
        step = _chunk_rows(c)
        faults = _RowFaults()
        for lo in range(0, n, step):
            rows = buf[:min(step, n - lo) * c].reshape(-1, c)
            dten.read_into(f, rows, dten.PAYLOAD_START + lo * c * 4)
            if summary is None:
                _check_rows(rows, lo, faults)
            else:
                _ingest_rows(rows, lo, faults)
                if not faults:
                    hi = lo + rows.shape[0]
                    labels = manifest.labels[lo:hi]
                    summary.bits[lo:hi] = _correct(rows, labels)
                    summary.label_probs[lo:hi] = rows[np.arange(rows.shape[0]), labels]
        faults.raise_for(model_id)


# --- correctness and accuracy ------------------------------------------------

def correctness(tensor: PredictionTensor, manifest: BenchmarkManifest) -> np.ndarray:
    """Per-sample (N,) uint8 correctness: argmax class (ties -> lowest index) == label."""
    if tensor.values.shape != (manifest.num_samples, manifest.num_classes):
        raise ShapeMismatch(
            f"tensor shape {tensor.values.shape} does not match manifest "
            f"({manifest.num_samples}, {manifest.num_classes})")
    return _correct(tensor.values, np.asarray(manifest.labels))


def anchor_correctness(rows: np.ndarray, manifest: BenchmarkManifest,
                       idx: np.ndarray) -> np.ndarray:
    """``correctness`` of a model at samples ``idx``, from its rows there."""
    return _correct(rows, np.asarray(manifest.labels)[idx])


def _correct(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(rows,) uint8: argmax class (ties -> lowest index) == label."""
    return (np.argmax(rows, axis=1) == labels).astype(np.uint8)


def accuracy(bits: np.ndarray) -> float:
    arr = np.asarray(bits)
    if arr.size == 0:
        raise EmptyDataset("accuracy of an empty correctness vector is undefined")
    return int(arr.sum()) / arr.size
