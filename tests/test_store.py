from __future__ import annotations

import datetime as dt
import json
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disco import dten
from disco.errors import (
    InvariantViolation,
    MagicMismatch,
    MissingFile,
    RowSumOutOfTolerance,
    SchemaError,
    ShapeMismatch,
)
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
            dten.read_dten(path)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.dten"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(MagicMismatch, match="bad.dten"):
            dten.read_dten(path)

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
