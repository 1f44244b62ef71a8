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
from typing import Iterator, Mapping

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
        holds: its rows are renormalized in place."""
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensor for {model_id!r} must be 2-D, got ndim={arr.ndim}")
        if arr.size:
            low, high = arr.min(), arr.max()  # a NaN propagates to both
            if not (np.isfinite(low) and np.isfinite(high)):
                raise InvariantViolation(f"tensor for {model_id!r} contains non-finite entries")
            if low < 0 or high > 1:
                i, c = np.argwhere((arr < 0) | (arr > 1))[0]
                raise InvariantViolation(
                    f"tensor for {model_id!r} has entry outside [0,1] at ({i},{c}): {arr[i, c]}")
        wide = arr.astype(np.float64)
        sums = wide.sum(axis=1)
        off = np.abs(sums - 1.0)
        if (off > ROW_SUM_TOLERANCE).any():
            i = int(np.argmax(off))
            raise RowSumOutOfTolerance(
                f"tensor for {model_id!r} row {i} sums to {sums[i]:.6f}, "
                f"outside 1 +/- {ROW_SUM_TOLERANCE}")
        _renormalize_rows(arr, wide, sums)
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
    the rows still moving are recomputed.  At many classes some rows still
    move after the 8th pass, so saving a loaded tensor and loading it again
    can change those rows: pipelines only ever read tensors from files.
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


def load_tensor(manifest: BenchmarkManifest, model_id: str) -> PredictionTensor:
    meta = manifest.model(model_id)
    path = Path(meta.tensor_path)
    if not path.is_absolute():
        if manifest.base_dir is None:
            raise MissingFile(
                f"manifest has no base directory to resolve {meta.tensor_path!r}")
        path = manifest.base_dir / path
    values = dten.read_dten(path)
    if values.dtype != np.float32:
        raise MagicMismatch(f"{path}: prediction tensors must be float32 (dtype code 0)")
    expected = (manifest.num_samples, manifest.num_classes)
    if values.shape != expected:
        raise ShapeMismatch(f"{path}: expected dims {expected}, found {values.shape}")
    return PredictionTensor._adopt(model_id, values)


def load_all_tensors(manifest: BenchmarkManifest) -> dict[str, PredictionTensor]:
    return {mid: load_tensor(manifest, mid) for mid in manifest.model_ids()}


class TensorFiles(Mapping[str, PredictionTensor]):
    """The tensors of ``model_ids``, each loaded from its file on every
    lookup and not kept."""

    def __init__(self, manifest: BenchmarkManifest, model_ids: list[str]):
        self.manifest = manifest
        self._ids = dict.fromkeys(model_ids)

    def __getitem__(self, model_id: str) -> PredictionTensor:
        if model_id not in self._ids:
            raise KeyError(model_id)
        return load_tensor(self.manifest, model_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


# --- correctness and accuracy ------------------------------------------------

def correctness(tensor: PredictionTensor, manifest: BenchmarkManifest) -> np.ndarray:
    """Per-sample (N,) uint8 correctness: argmax class (ties -> lowest index) == label."""
    if tensor.values.shape != (manifest.num_samples, manifest.num_classes):
        raise ShapeMismatch(
            f"tensor shape {tensor.values.shape} does not match manifest "
            f"({manifest.num_samples}, {manifest.num_classes})")
    pred = np.argmax(tensor.values, axis=1)  # first occurrence wins ties
    return (pred == np.asarray(manifest.labels)).astype(np.uint8)


def accuracy(bits: np.ndarray) -> float:
    arr = np.asarray(bits)
    if arr.size == 0:
        raise EmptyDataset("accuracy of an empty correctness vector is undefined")
    return int(arr.sum()) / arr.size
