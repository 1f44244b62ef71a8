from __future__ import annotations

import datetime as dt
import json
import os
import struct
import tempfile
import tracemalloc
import warnings
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import disco.files
from disco import dten, store
from disco.errors import (
    IndexOutOfRange,
    InvariantViolation,
    MagicMismatch,
    MissingFile,
    RowSumOutOfTolerance,
    SchemaError,
    ShapeMismatch,
)
from disco.files import TensorFiles
from disco.store import (
    EmptyDataset,
    PredictionTensor,
    accuracy,
    correctness,
    load_manifest,
    load_tensor,
    manifest_bytes,
    save_manifest,
    save_tensor,
)
from disco.synth import SynthConfig, generate_population

from conftest import make_manifest, tensor_from_rows


def write_population(tmp_path, manifest, tensors):
    (tmp_path / "tensors").mkdir(exist_ok=True)
    for t in tensors:
        save_tensor(t, tmp_path / "tensors" / f"{t.model_id}.dten")
    save_manifest(manifest, tmp_path / "manifest.json")
    return tmp_path / "manifest.json"


class TestManifest:
    def test_round_trip_counts(self, tmp_path):
        man = make_manifest([0, 1, 1, 0], 2, ["a", "b", "c"], accuracies=[0.5, None, 1.0])
        path = tmp_path / "manifest.json"
        save_manifest(man, path)
        loaded = load_manifest(path)
        assert loaded.num_samples == 4
        assert loaded.num_classes == 2
        assert len(loaded.models) == 3
        assert loaded.models[1].true_accuracy is None

    def test_save_load_byte_identical(self, tmp_path):
        man = make_manifest([0, 1, 2], 3, ["m1", "m2"], accuracies=[0.25, 0.75],
                            dates=[dt.date(2022, 5, 1), dt.date(2024, 2, 29)],
                            task_tags=["x", "y", "x"])
        path = tmp_path / "manifest.json"
        save_manifest(man, path)
        first = path.read_bytes()
        save_manifest(load_manifest(path), path)
        assert path.read_bytes() == first

    def test_label_out_of_range_names_index(self, tmp_path):
        man = make_manifest([0, 1, 2], 2, ["a"])
        with pytest.raises(InvariantViolation, match="index 2"):
            man.validate()

    def test_duplicate_model_id(self):
        man = make_manifest([0], 2, ["a", "a"])
        with pytest.raises(InvariantViolation, match="'a'"):
            man.validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_manifest(tmp_path / "nope.json")

    def test_schema_errors(self, tmp_path):
        man = make_manifest([0, 1], 2, ["a"])
        obj = json.loads(manifest_bytes(man))
        path = tmp_path / "m.json"

        bad = dict(obj)
        del bad["labels"]
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="labels"):
            load_manifest(path)

        bad = dict(obj)
        bad["extra_key"] = 1
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="extra_key"):
            load_manifest(path)

        bad = json.loads(manifest_bytes(man))
        bad["models"][0]["release_date"] = 123
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="release_date"):
            load_manifest(path)

        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_manifest(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda obj: obj.update(format_version=True), "format_version"),
        (lambda obj: obj.update(format_version=99), "format_version"),
        (lambda obj: obj["models"][0].update(true_accuracy=True), "true_accuracy"),
        (lambda obj: obj["labels"].__setitem__(0, 2**70), "labels"),
    ], ids=["version-true", "version-99", "accuracy-true", "label-outside-int64"])
    def test_field_types_rejected(self, tmp_path, edit, field):
        obj = json.loads(manifest_bytes(make_manifest([0, 1], 2, ["a"], accuracies=[0.5])))
        edit(obj)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=field):
            load_manifest(path)

    @pytest.mark.parametrize("key, value, message", [
        ("labels", True, r"labels\[3\] must be a 64-bit integer"),
        ("labels", 1.5, r"labels\[3\] must be a 64-bit integer"),
        ("labels", 2**63, r"labels\[3\] must be a 64-bit integer"),
        ("task_tags", 7, r"task_tags\[2\] must be a string"),
    ], ids=["label-true", "label-float", "label-2**63", "tag-int"])
    def test_first_bad_entry_is_named(self, tmp_path, key, value, message):
        obj = json.loads(manifest_bytes(make_manifest([0, 1, 0, 1, 0, 1], 2, ["a"])))
        at = 3 if key == "labels" else 2
        obj[key][at] = value
        obj[key][at + 1] = value      # only the first bad entry is named
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_manifest(path)

    def test_unparseable_date_is_invariant_violation(self, tmp_path):
        man = make_manifest([0, 1], 2, ["a"])
        obj = json.loads(manifest_bytes(man))
        obj["models"][0]["release_date"] = "not-a-date"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvariantViolation, match="release_date"):
            load_manifest(path)

    def test_task_tag_count_checked(self):
        man = make_manifest([0, 1], 2, ["a"], task_tags=["only-one"])
        with pytest.raises(InvariantViolation, match="task_tags"):
            man.validate()


class TestTensorIO:
    def test_round_trip_bit_exact(self, tmp_path):
        t = tensor_from_rows("m", [[1.0, 0.0], [0.5, 0.5]])
        path = tmp_path / "t.dten"
        save_tensor(t, path)
        man = make_manifest([0, 0], 2, ["m"])
        man.base_dir = tmp_path
        man.models[0].tensor_path = "t.dten"
        loaded = load_tensor(man, "m")
        assert loaded.values.tobytes() == t.values.tobytes()

    def test_save_load_save_idempotent(self, tmp_path, rng):
        # fixed-point renormalization makes reserialization byte-stable
        for trial in range(25):
            raw = rng.random((6, 5)).astype(np.float32) + 1e-3
            raw /= raw.sum(axis=1, keepdims=True)
            t = PredictionTensor.from_values("m", raw)
            path = tmp_path / "t.dten"
            save_tensor(t, path)
            first = path.read_bytes()
            man = make_manifest([0] * 6, 5, ["m"])
            man.base_dir = tmp_path
            man.models[0].tensor_path = "t.dten"
            save_tensor(load_tensor(man, "m"), path)
            assert path.read_bytes() == first

    def test_row_sum_out_of_tolerance(self):
        with pytest.raises(RowSumOutOfTolerance, match="row 0"):
            tensor_from_rows("m", [[0.6, 0.39]])

    def test_mild_row_sum_error_renormalized(self):
        t = tensor_from_rows("m", [[0.30001, 0.69999]])
        assert abs(t.values.astype(np.float64).sum() - 1.0) < 1e-6

    def test_entry_out_of_bounds(self):
        with pytest.raises(InvariantViolation, match="outside"):
            tensor_from_rows("m", [[1.2, -0.2]])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.dten"
        save_tensor(tensor_from_rows("m", [[0.5, 0.5], [0.25, 0.75]]), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(MagicMismatch, match="1 trailing bytes"):
            dten.open_dten(path)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.dten"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(MagicMismatch, match="bad.dten"):
            dten.open_dten(path)

    def test_shape_mismatch(self, tmp_path):
        t = tensor_from_rows("m", [[0.5, 0.5], [0.1, 0.9], [1.0, 0.0]])
        save_tensor(t, tmp_path / "t.dten")
        man = make_manifest([0, 0], 2, ["m"])  # expects 2 rows, file has 3
        man.base_dir = tmp_path
        man.models[0].tensor_path = "t.dten"
        with pytest.raises(ShapeMismatch, match="expected"):
            load_tensor(man, "m")

    def test_missing_tensor_file(self, tmp_path):
        man = make_manifest([0], 2, ["m"])
        man.base_dir = tmp_path
        with pytest.raises(MissingFile):
            load_tensor(man, "m")


class TestCorrectness:
    def test_exact_match(self):
        man = make_manifest([0, 1], 2, ["m"])
        t = tensor_from_rows("m", [[1, 0], [0, 1]])
        assert correctness(t, man).tolist() == [1, 1]

    def test_argmax_tie_breaks_low(self):
        man = make_manifest([1], 2, ["m"])
        t = tensor_from_rows("m", [[0.5, 0.5]])
        assert correctness(t, man).tolist() == [0]

    def test_matches_bruteforce_argmax(self, rng):
        # independent oracle: per-row python argmax with explicit tie scan
        labels = rng.integers(0, 4, size=10)
        man = make_manifest(labels, 4, ["m"])
        raw = rng.random((10, 4)) + 1e-9
        raw /= raw.sum(axis=1, keepdims=True)
        t = PredictionTensor.from_values("m", raw.astype(np.float32))
        expected = []
        for i in range(10):
            row = t.values[i]
            best, best_c = -1.0, -1
            for c in range(4):
                if row[c] > best:
                    best, best_c = row[c], c
            expected.append(1 if best_c == labels[i] else 0)
        assert correctness(t, man).tolist() == expected

    def test_invariant_to_row_rescaling(self, rng):
        # scaling a row within the ingest tolerance must not move the argmax
        labels = rng.integers(0, 3, size=8)
        man = make_manifest(labels, 3, ["m"])
        raw = rng.random((8, 3)) + 0.05
        raw /= raw.sum(axis=1, keepdims=True)
        base = PredictionTensor.from_values("m", raw.astype(np.float32))
        scaled = PredictionTensor.from_values("m", (raw * 0.99996).astype(np.float32))
        assert np.array_equal(correctness(base, man), correctness(scaled, man))

    def test_shape_mismatch(self):
        man = make_manifest([0, 1], 2, ["m"])
        t = tensor_from_rows("m", [[1, 0]])
        with pytest.raises(ShapeMismatch):
            correctness(t, man)


class TestAccuracy:
    def test_all_correct(self):
        man = make_manifest([0] * 4, 2, ["m"])
        t = tensor_from_rows("m", [[1, 0]] * 4)
        assert accuracy(correctness(t, man)) == 1.0

    def test_half_correct(self):
        assert accuracy(np.array([1, 0, 1, 0], dtype=np.uint8)) == 0.5

    def test_matches_mean_oracle(self, rng):
        bits = rng.integers(0, 2, size=997).astype(np.uint8)
        total = 0
        for b in bits:
            total += int(b)
        assert abs(accuracy(bits) - total / 997) < 1e-12

    def test_range(self, rng):
        for _ in range(20):
            bits = rng.integers(0, 2, size=int(rng.integers(1, 50)))
            assert 0.0 <= accuracy(bits) <= 1.0

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            accuracy(np.array([], dtype=np.uint8))


class TestBundle:
    def test_bundle_round_trip(self, tmp_path):
        arrays = {
            "a": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.ones((1, 4), dtype=np.float32),
        }
        path = tmp_path / "x.dpak"
        dten.write_bundle(path, {"kind": "test", "n": 2}, arrays)
        header, loaded = dten.read_bundle(path)
        assert header["kind"] == "test"
        assert loaded["a"].dtype == np.float64
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.dpak"
        dten.write_bundle(path, {}, {"a": np.ones((2, 2)), "b": np.zeros((1, 3))})
        path.write_bytes(path.read_bytes() + b"DTEN")
        with pytest.raises(MagicMismatch, match="4 trailing bytes"):
            dten.read_bundle(path)

    @pytest.mark.parametrize("header", [b"[]", b'{"blocks": 3}'])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "x.dpak"
        path.write_bytes(dten.BUNDLE_MAGIC + bytes([1, 0, 0, 0])
                         + len(header).to_bytes(4, "little") + header)
        with pytest.raises(MagicMismatch, match="list of block names"):
            dten.read_bundle(path)

    def test_truncated_bundle(self, tmp_path):
        path = tmp_path / "x.dpak"
        arrays = {"a": np.ones((2, 2))}
        dten.write_bundle(path, {}, arrays)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(MagicMismatch, match="payload"):
            dten.read_bundle(path)


# --- row renormalization against the loop it replaced --------------------------

def renormalize_rows_reference(arr):
    """The whole-array divide-and-round loop, with its global exit tests."""
    for _ in range(8):
        sums = arr.astype(np.float64).sum(axis=1)
        if (sums == 1.0).all():
            break
        new = (arr.astype(np.float64) / sums[:, None]).astype(np.float32)
        if np.array_equal(new, arr):
            break
        arr = new
    return arr


@cache
def synthetic_wide_values():
    """Loaded rows of four synthetic 2000 x 100 tensors, stacked."""
    _, tensors = generate_population(SynthConfig(m_models=4, n_samples=2000,
                                                 c_classes=100, seed=0))
    return np.concatenate([t.values for t in tensors.values()])


@cache
def still_moving_rows():
    """Loaded C=100 rows that one more divide-and-round pass still changes:
    the loop stopped them at its 8-pass cap."""
    values = synthetic_wide_values()
    sums = values.astype(np.float64).sum(axis=1)
    moved = ((values.astype(np.float64) / sums[:, None]).astype(np.float32)
             != values).any(axis=1)
    assert moved.sum() >= 3
    return values[moved]


@st.composite
def raw_tensors(draw):
    c = draw(st.sampled_from([1, 2, 4, 100]))
    kinds = draw(st.lists(st.sampled_from(["flat", "peaked", "exact", "moving"]),
                          min_size=1, max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "moving" and c == 100:
            pool = still_moving_rows()
            rows.append(pool[rng.integers(len(pool))])
        elif kind == "exact" or c == 1:  # float64 sum is exactly 1.0
            row = np.zeros(c, dtype=np.float32)
            if c >= 2 and rng.random() < 0.5:
                row[rng.choice(c, 2, replace=False)] = 0.5
            else:
                row[rng.integers(c)] = 1.0
            rows.append(row)
        else:
            w = rng.random(c) ** (8.0 if kind == "peaked" else 1.0)
            row = w / w.sum() * (1.0 + rng.uniform(-5e-5, 5e-5))
            rows.append(np.clip(row, 0.0, 1.0).astype(np.float32))
    return np.stack(rows)


@settings(max_examples=300)
@given(raw=raw_tensors())
def test_renormalize_equals_reference_loop(raw):
    before = raw.tobytes()
    values = PredictionTensor.from_values("m", raw).values
    assert values.dtype == np.float32
    assert values.tobytes() == renormalize_rows_reference(raw).tobytes()
    assert raw.tobytes() == before  # the caller's array is left alone


def test_wide_file_loads_like_reference(tmp_path):
    # 8000 rows, some of which hit the 8-pass cap, through the in-place file path
    values = synthetic_wide_values()
    path = tmp_path / "t.dten"
    dten.write_dten(path, values)
    man = make_manifest([0] * len(values), 100, ["m"])
    man.base_dir = tmp_path
    man.models[0].tensor_path = "t.dten"
    first = load_tensor(man, "m").values
    assert first.tobytes() == renormalize_rows_reference(values).tobytes()
    # a given file always loads to the same values ...
    assert load_tensor(man, "m").values.tobytes() == first.tobytes()
    # ... but a loaded tensor is no fixed point: rewritten, it loads to other bits
    assert first.tobytes() != values.tobytes()


# --- chunked ingest against the whole-array checks it replaced ----------------

def adopt_reference(model_id, arr):
    """The whole-array from_values: every check over the full tensor, then one
    renormalization of all of it."""
    if arr.size:
        low, high = arr.min(), arr.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise InvariantViolation(f"tensor for {model_id!r} contains non-finite entries")
        if low < 0 or high > 1:
            i, c = np.argwhere((arr < 0) | (arr > 1))[0]
            raise InvariantViolation(
                f"tensor for {model_id!r} has entry outside [0,1] at ({i},{c}): {arr[i, c]}")
    wide = arr.astype(np.float64)
    sums = wide.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > store.ROW_SUM_TOLERANCE).any():
        i = int(np.argmax(off))
        raise RowSumOutOfTolerance(
            f"tensor for {model_id!r} row {i} sums to {sums[i]:.6f}, "
            f"outside 1 +/- {store.ROW_SUM_TOLERANCE}")
    store._renormalize_rows(arr, wide, sums)
    return arr


def outcome(fn, *args):
    """The bytes ``fn`` returns, or the class and message of what it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero-sum row must not be divided
            result = fn(*args)
    except (InvariantViolation, RowSumOutOfTolerance) as e:
        return type(e), str(e)
    return None if result is None else result.tobytes()


CORRUPTIONS = {
    "nan": lambda row: np.where(np.arange(row.size) == 0, np.nan, row),
    "inf": lambda row: np.where(np.arange(row.size) == row.size - 1, np.inf, row),
    "negative": lambda row: np.where(np.arange(row.size) == 0, -0.25, row),
    "above-one": lambda row: np.where(np.arange(row.size) == 0, 1.5, row),
    "low-sum": lambda row: row * 0.99,
    "high-sum": lambda row: row * 1.0003,
    "zero-sum": lambda row: np.zeros_like(row),
}


@st.composite
def corrupt_tensors(draw):
    raw = draw(raw_tensors())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(raw) - 1))
        raw[i] = CORRUPTIONS[draw(st.sampled_from(sorted(CORRUPTIONS)))](raw[i])
    return raw


def with_chunk_rows(rows, c):
    return mock.patch.object(store, "_CHUNK_BYTES", rows * c * 4)


@settings(max_examples=300)
@given(raw=corrupt_tensors(), chunk=st.sampled_from([1, 2, 3, 7, None]))
def test_chunked_ingest_equals_whole_array(raw, chunk):
    # chunks of 1, 2, 3 and 7 rows give multi-chunk cases and 1-row tails
    want = outcome(adopt_reference, "m", raw.copy())
    with with_chunk_rows(chunk or 1 << 20, raw.shape[1]):
        got = outcome(lambda a: PredictionTensor.from_values("m", a).values, raw.copy())
        assert got == want
        with tempfile.TemporaryDirectory() as tmp:
            man = make_manifest([0] * len(raw), raw.shape[1], ["m"])
            man.base_dir = Path(tmp)
            man.models[0].tensor_path = "t.dten"
            dten.write_dten(Path(tmp) / "t.dten", raw)
            assert outcome(lambda: load_tensor(man, "m").values) == want
            # the file check raises what loading does, and keeps nothing
            assert outcome(TensorFiles(man, ["m"]).check) == (want if type(want) is tuple
                                                             else None)


def corrupt_case(rows):
    """20 exact rows of 4 classes with the given rows replaced."""
    raw = np.tile(np.float32([0.25, 0.25, 0.5, 0.0]), (20, 1))
    for i, row in rows.items():
        raw[i] = row
    return raw


@pytest.mark.parametrize("rows, error, message", [
    # an entry out of range early, a NaN in a later chunk: the NaN wins
    ({1: [1.5, 0, 0, 0], 17: [np.nan, 0, 0, 1]}, InvariantViolation, "non-finite"),
    # the first entry out of range in row-major order, not the largest
    ({6: [0.5, 0.5, 0.25, -0.25], 12: [2.0, 0, 0, -1.0]}, InvariantViolation,
     r"outside \[0,1\] at \(6,3\): -0.25"),
    # two rows off tolerance in different chunks: the worst is named ...
    ({2: [0.3, 0.3, 0.3, 0.0], 15: [0.2, 0.2, 0.2, 0.0]}, RowSumOutOfTolerance,
     "row 15 sums to 0.600000"),
    # ... and the first of two equally bad rows
    ({4: [0.3, 0.3, 0.3, 0.0], 19: [0.3, 0.3, 0.3, 0.0]}, RowSumOutOfTolerance,
     "row 4 sums to 0.900000"),
    # a zero-sum row is reported, not divided
    ({9: [0, 0, 0, 0]}, RowSumOutOfTolerance, "row 9 sums to 0.000000"),
], ids=["nan-after-outside", "first-outside", "worst-row", "tied-rows", "zero-sum"])
def test_chunked_ingest_error_precedence(rows, error, message):
    raw = corrupt_case(rows)
    want = outcome(adopt_reference, "m", raw.copy())
    assert want[0] is error
    with with_chunk_rows(3, 4):
        got = outcome(lambda a: PredictionTensor.from_values("m", a).values, raw.copy())
        assert got == want
        with pytest.raises(error, match=message), warnings.catch_warnings():
            warnings.simplefilter("error")
            PredictionTensor.from_values("m", raw)


def test_dims_too_large_for_an_array_rejected(tmp_path):
    # an empty payload whose other dim no array can have
    path = tmp_path / "t.dten"
    path.write_bytes(b"DTEN" + bytes([1, 0, 2, 0]) + struct.pack("<QQ", 0, 2**62))
    with pytest.raises(MagicMismatch, match="too large"):
        dten.open_dten(path)


def test_file_that_shrinks_after_open_is_a_short_read(tmp_path):
    path = tmp_path / "t.dten"
    dten.write_dten(path, np.full((4, 2), 0.5, dtype=np.float32))
    f, dtype, dims = dten.open_dten(path)
    with f:
        os.truncate(path, path.stat().st_size - 6)
        with pytest.raises(MagicMismatch, match="file ends 6 bytes short"):
            dten.read_into(f, np.empty(dims, dtype), dten.PAYLOAD_START)


# --- summaries and anchor rows read from the files ---------------------------

def write_population(root, raws, labels):
    """A manifest over tensor files holding ``raws`` (model id -> rows)."""
    n, c = next(iter(raws.values())).shape
    man = make_manifest(labels, c, list(raws))
    man.base_dir = Path(root)
    (Path(root) / "tensors").mkdir(exist_ok=True)
    for mid, raw in raws.items():
        dten.write_dten(Path(root) / "tensors" / f"{mid}.dten", raw)
    return man


def clean_rows_except(raw, idx):
    """``raw`` with every row not in ``idx`` replaced by an exact one-hot row,
    so that a whole-tensor check can fail only at the rows in ``idx``."""
    out = np.zeros_like(raw)
    out[:, 0] = 1.0
    out[idx] = raw[idx]
    return out


@settings(max_examples=200)
@given(raw=corrupt_tensors(), data=st.data())
def test_anchor_rows_equal_loaded_rows(raw, data):
    n, c = raw.shape
    # anchors as selectors give them (sorted, distinct), or in any order
    # with repeats, as a library caller may pass them
    drawn = data.draw(st.lists(st.integers(0, n - 1), min_size=1))
    idx = np.asarray(data.draw(st.sampled_from([sorted(set(drawn)), drawn])))
    gap = data.draw(st.sampled_from([0, 4 * c, disco.files._GAP_BYTES, 1 << 40]))
    # what loading the tensor would give at the anchors, or raise for them
    want = outcome(lambda a: adopt_reference("m", a)[idx], clean_rows_except(raw, idx))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(disco.files, "_GAP_BYTES", gap):
        man = write_population(tmp, {"m": raw}, [0] * n)
        files = TensorFiles(man, ["m"])
        assert outcome(lambda: files.anchor_rows(["m"], idx)[0]) == want


def test_anchor_rows_name_the_first_model_at_fault(tmp_path):
    rng = np.random.default_rng(8)
    n, c = 30, 4
    raws = {}
    for mid in ("a", "b", "c"):
        raw = rng.random((n, c)).astype(np.float32)
        raws[mid] = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
    raws["c"][7] *= 0.9
    raws["b"][20] *= 0.9
    man = write_population(tmp_path, raws, rng.integers(0, c, n))
    files = TensorFiles(man, ["c", "b", "a"])
    with pytest.raises(RowSumOutOfTolerance, match="'b' row 20 sums to"):
        files.anchor_rows(["a", "b", "c"], [3, 7, 20])
    with pytest.raises(RowSumOutOfTolerance, match="'c' row 7 sums to"):
        files.anchor_rows(["c", "b"], [7, 20])
    assert files.anchor_rows(["a", "c"], [3, 20]).shape == (2, 2, c)
    with pytest.raises(IndexOutOfRange):
        files.anchor_rows(["a"], [3, n])
    with pytest.raises(IndexOutOfRange):
        files.anchor_rows(["a"], [-1, 3])


@pytest.mark.parametrize("summarize", [["b", "a"], []], ids=["in-check", "on-demand"])
def test_summaries_equal_loaded(tmp_path, summarize):
    rng = np.random.default_rng(9)
    n, c = 37, 100
    raws = {mid: still_moving_rows()[rng.integers(len(still_moving_rows()), size=n)]
            for mid in ("a", "b", "c")}
    man = write_population(tmp_path, raws, rng.integers(0, c, n))
    files = TensorFiles(man, ["c", "a", "b"])
    with with_chunk_rows(4, c):
        files.check(summarize)
    for mid in ("a", "b"):
        tensor = load_tensor(man, mid)
        summary = files.summary(mid)
        assert summary.bits.tobytes() == correctness(tensor, man).tobytes()
        want = tensor.values.astype(np.float64)[np.arange(n), man.labels]
        assert summary.label_probs.tobytes() == want.tobytes()
        assert not summary.bits.flags.writeable


def test_files_are_checked_once(tmp_path, monkeypatch):
    raws = {mid: np.full((5, 2), 0.5, dtype=np.float32) for mid in ("a", "b")}
    man = write_population(tmp_path, raws, [0] * 5)
    checked = []
    check_file = TensorFiles._check_file

    def counting(self, model_id, *args, **kwargs):
        checked.append(model_id)
        return check_file(self, model_id, *args, **kwargs)

    monkeypatch.setattr(TensorFiles, "_check_file", counting)
    files = TensorFiles(man, ["b", "a"])
    files.check(["a"])
    assert checked == ["b", "a"]
    view = files.select(["a"])
    view.check()
    files.check()
    assert checked == ["b", "a"]
    files.summary("b")  # not kept by the check: read once more
    assert checked == ["b", "a", "b"]
    with pytest.raises(KeyError):
        files.select(["z"])


def test_check_peak_allocation_bounded(tmp_path):
    # the whole-file check reads through one ingest chunk, so its peak is a
    # few chunks (128 KiB of float32 rows each), not a file (2 MB each here)
    rng = np.random.default_rng(4)
    n, c = 5000, 100
    raws = {mid: rng.dirichlet(np.ones(c), n).astype(np.float32) for mid in "abcd"}
    man = write_population(tmp_path, raws, rng.integers(0, c, n))
    for summarize, bound in (((), 512 << 10), (list(raws), 1 << 20)):
        files = TensorFiles(man, list(raws))
        tracemalloc.start()
        try:
            files.check(summarize)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (summarize, peak)
