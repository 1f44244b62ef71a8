"""Dataset registry: manifest JSON, prediction tensors, correctness, accuracy.

A benchmark directory holds one ``manifest.json`` plus one DTEN file per
registered model.  The manifest is canonical JSON: fixed key order, 2-space
indent, trailing newline, so save -> load -> save is byte-identical.  Every
read of a model's file goes through ``files.TensorFiles``: ``load_tensor``
reads all its rows through ``anchor_rows``.
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
        arr = np.array(values, dtype=np.float32, order="C")
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


def _renormalize_rows(arr: np.ndarray, wide: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Divide each row by its float64 sum and round to float32, in place.

    ``wide`` is ``arr.astype(np.float64)``, which this overwrites, and
    ``sums`` its row sums.  A row stops at a float32 fixed point, once a pass
    leaves its bits unchanged (as it does when the row sums to exactly 1.0),
    or after 8 passes.  Rows do not interact, so after the first pass only
    the rows still moving are recomputed.  Some rows still move after the
    8th pass, even at 4 classes, so saving a loaded tensor and loading it
    again can change those rows: pipelines only ever read tensors from
    files.  Returns the indices of the rows it changed; ``wide`` holds every
    row as it was, divided by its sum.
    """
    wide /= sums[:, None]
    new = wide.astype(np.float32)
    diff = new != arr
    # most chunks have no row to move, and counting is faster than any()
    changed = idx = np.flatnonzero(diff.any(axis=1) if np.count_nonzero(diff) else ())
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
    return changed


# Bytes of float32 rows ingested at once, by every read of a tensor file
# and by ``from_values``: the float64 working copy is twice that, however
# many samples the tensor has.  Scoring's stripes have as many rows.
_CHUNK_BYTES = 1 << 17


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


def _check_rows(rows: np.ndarray, row0: int, faults: _RowFaults,
                wide: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """Check a float32 chunk whose first row is row ``row0`` of its tensor,
    recording what fails in ``faults``.  Entries must be finite and in
    [0,1], and each row must sum to 1 within ROW_SUM_TOLERANCE.  Return the
    chunk as float64 (cast into ``wide``, if given, a float64 array of its
    shape) and its row sums, or None if the chunk failed or ``faults``
    already holds an error that no row sum can displace."""
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
    if wide is None:
        wide = rows.astype(np.float64)
    else:
        np.copyto(wide, rows)
    sums = wide.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > ROW_SUM_TOLERANCE).any():
        i = int(np.argmax(off))
        if faults.worst is None or off[i] > faults.worst[0]:
            faults.worst = (off[i], row0 + i, sums[i])
        return None
    return wide, sums


def _ingest_rows(rows: np.ndarray, row0: int, faults: _RowFaults,
                 wide: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """The ingest kernel: check a C-contiguous float32 chunk as
    ``_check_rows`` does and, if it passed, renormalize it in place.  A row
    that failed a check is never divided.  Returns what
    ``_renormalize_rows`` leaves: the chunk as float64, each row divided by
    its float64 sum as it was (in ``wide``, if given), and the indices of the
    rows it changed; or None if the chunk failed."""
    checked = _check_rows(rows, row0, faults, wide)
    if checked is None:
        return None
    wide, sums = checked
    return wide, _renormalize_rows(rows, wide, sums)


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


def _is_int64(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


def _first_failing(values: list, ok) -> int | None:
    """The index of the first of ``values`` that ``ok`` rejects, or None;
    a message is then built for that one alone, not for every entry."""
    return next((i for i, v in enumerate(values) if not ok(v)), None)


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
    bad = _first_failing(obj["labels"], _is_int64)
    _require(bad is None, f"labels[{bad}] must be a 64-bit integer")
    _require(isinstance(obj["task_tags"], list), "task_tags must be an array")
    bad = _first_failing(obj["task_tags"], lambda v: isinstance(v, str))
    _require(bad is None, f"task_tags[{bad}] must be a string")
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
    """The model's whole tensor: every row read through ``TensorFiles``,
    checked and renormalized as any read of its file is."""
    from .files import TensorFiles  # files imports store

    rows = TensorFiles(manifest, [model_id]).anchor_rows(
        [model_id], np.arange(manifest.num_samples))
    return PredictionTensor(model_id, rows[0])


@dataclass(frozen=True)
class SampleSummary:
    """What the selectors read of one model, per sample: its correctness bit
    and its label class's probability, from its rows as loaded."""

    bits: np.ndarray          # (N,) uint8, as ``correctness`` gives them
    label_probs: np.ndarray   # (N,) float64


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
    """``correctness`` of a model at samples ``idx``, from its (K, C) rows
    there; a stack of such rows, shaped (..., K, C), gives bits shaped
    (..., K)."""
    return _correct(rows, np.asarray(manifest.labels)[idx])


def _correct(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """uint8 bits, one per row: argmax class (ties -> lowest index) == label."""
    return (np.argmax(rows, axis=-1) == labels).astype(np.uint8)


def accuracy(bits: np.ndarray) -> float:
    arr = np.asarray(bits)
    if arr.size == 0:
        raise EmptyDataset("accuracy of an empty correctness vector is undefined")
    return int(arr.sum()) / arr.size
