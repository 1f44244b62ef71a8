from __future__ import annotations

import math
import struct
import tempfile
import tracemalloc
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disco import dten, store
from disco.errors import (
    DiscoError,
    InvalidConfig,
    InvalidDistribution,
    LengthMismatch,
    NonZeroSum,
    ShapeMismatch,
    TooFewModels,
)
from disco.scoring import (
    CSV_HEADER,
    balance_identity_check,
    check_sandwich,
    jsd,
    mutual_information_bruteforce,
    pds,
    read_scores_csv,
    score_dataset,
    total_variation,
    write_scores_csv,
)

from disco.files import TensorFiles
from disco.store import PredictionTensor, load_tensor

from conftest import make_manifest, random_stack, saved_population, tensor_from_rows


def entropy2_naive(p):
    return -sum(x * math.log2(x) for x in p if x > 0)


class TestPds:
    def test_full_agreement_lower_bound(self):
        stack = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        env, eq1 = pds(stack)
        assert env == 1.0
        assert eq1 == 0.25

    def test_full_disagreement(self):
        env, eq1 = pds(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert env == 2.0
        assert eq1 == 1.0

    def test_matches_column_max_oracle(self, rng):
        for _ in range(50):
            stack = random_stack(rng, m=4, c=5)
            env, eq1 = pds(stack)
            oracle = sum(max(stack[m][c] for m in range(4)) for c in range(5))
            assert abs(env - oracle) < 1e-12
            assert abs(eq1 - oracle / 5) < 1e-12

    def test_range(self, rng):
        for _ in range(200):
            stack = random_stack(rng)
            env, _ = pds(stack)
            m, c = stack.shape
            assert 1.0 <= env <= min(m, c)

    def test_adding_a_model_never_decreases_env(self, rng):
        # column maxima are pointwise monotone under pool growth
        for _ in range(50):
            stack = random_stack(rng)
            extra = random_stack(rng, m=2, c=stack.shape[1])[0]
            grown = np.vstack([stack, extra])
            assert pds(grown)[0] >= pds(stack)[0] - 1e-12

    def test_invalid_rows_rejected(self):
        with pytest.raises(InvalidDistribution):
            pds(np.array([[0.5, 0.4], [1.0, 0.0]]))
        with pytest.raises(TooFewModels):
            pds(np.array([[1.0, 0.0]]))


class TestJsd:
    def test_identical_rows_zero(self):
        assert jsd(np.tile([0.2, 0.3, 0.5], (4, 1))) == 0.0

    def test_two_disjoint_onehots_one_bit(self):
        assert abs(jsd(np.array([[1.0, 0.0], [0.0, 1.0]])) - 1.0) < 1e-12

    def test_onehot_vs_uniform(self):
        # brute-force oracle: H(0.75, 0.25) - (H(1,0) + H(.5,.5)) / 2
        expected = entropy2_naive([0.75, 0.25]) - 0.5 * entropy2_naive([0.5, 0.5])
        value = jsd(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.3112781244591328) < 1e-12

    def test_clamped_to_capacity(self, rng):
        for _ in range(200):
            stack = random_stack(rng, peaked=bool(rng.integers(2)))
            m, c = stack.shape
            assert 0.0 <= jsd(stack) <= math.log2(min(m, c)) + 1e-12

    def test_near_equal_rows_give_near_zero(self, rng):
        base = random_stack(rng, m=1, c=5)[0]
        stack = np.tile(base, (4, 1))
        stack[1:] += rng.uniform(-1e-10, 1e-10, size=(3, 5))
        stack /= stack.sum(axis=1, keepdims=True)
        assert jsd(stack) < 1e-9

    def test_separated_rows_give_positive(self, rng):
        for _ in range(50):
            stack = random_stack(rng)
            mixture = stack.mean(axis=0)
            max_tv = max(total_variation(stack[i], mixture)
                         for i in range(stack.shape[0]))
            if max_tv > 1e-4:
                assert jsd(stack) > 0.0


class TestMutualInformation:
    def test_identical_rows_independent(self):
        assert mutual_information_bruteforce(np.tile([0.25, 0.75], (3, 1))) < 1e-15

    def test_distinct_onehots_one_bit(self):
        mi = mutual_information_bruteforce(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert abs(mi - 1.0) < 1e-12

    def test_equals_jsd_on_random_stacks(self, rng):
        # the identity MI(model; prediction) == generalized JSD
        for _ in range(300):
            stack = random_stack(rng, peaked=bool(rng.integers(2)))
            assert abs(jsd(stack) - mutual_information_bruteforce(stack)) < 1e-9


class TestTotalVariation:
    def test_identical(self):
        assert total_variation([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_onehots(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_summation(self):
        assert abs(total_variation([0.75, 0.25], [0.5, 0.5]) - 0.25) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            total_variation([1.0], [0.5, 0.5])


class TestSandwich:
    def test_identical_rows_degenerate(self):
        report = check_sandwich(np.tile([0.1, 0.9], (3, 1)))
        assert report.ok
        assert report.pds_lower == 0.0 and report.pds_upper == 0.0
        assert report.jsd_bits <= 1e-12  # mixture of 3 copies is off by one ulp

    def test_two_disjoint_onehots(self):
        report = check_sandwich(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert abs(report.pds_lower - 2.0 / (4.0 * math.log(2))) < 1e-12
        assert abs(report.jsd_bits - 1.0) < 1e-12
        assert abs(report.pds_upper - 2.0) < 1e-12
        assert report.ok

    def test_random_sweep(self, rng):
        for _ in range(1000):
            report = check_sandwich(random_stack(rng, peaked=bool(rng.integers(2))))
            assert report.ok

    def test_near_degenerate_rows(self, rng):
        # adversarial: rows differing at the 1e-7 level
        for _ in range(100):
            base = random_stack(rng, m=1, c=4)[0]
            m = int(rng.integers(2, 6))
            stack = np.tile(base, (m, 1)) + rng.uniform(-1e-7, 1e-7, size=(m, 4))
            stack = np.abs(stack)
            stack /= stack.sum(axis=1, keepdims=True)
            assert check_sandwich(stack).ok


class TestBalanceIdentity:
    def test_zeros(self):
        assert balance_identity_check([0.0, 0.0, 0.0])

    def test_plus_minus_one(self):
        assert balance_identity_check([1.0, -1.0])

    def test_random_zero_sum(self, rng):
        for _ in range(1000):
            a = rng.standard_normal(int(rng.integers(2, 40)))
            a -= a.mean()
            assert balance_identity_check(a)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NonZeroSum):
            balance_identity_check([1.0, 1.0])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
    @settings(max_examples=200)
    def test_hypothesis_zero_sum(self, xs):
        a = np.asarray(xs, dtype=np.float64)
        a -= a.mean()
        if abs(a.sum()) <= 1e-12:
            assert balance_identity_check(a)


@st.composite
def stacks(draw):
    m = draw(st.integers(2, 6))
    c = draw(st.integers(2, 8))
    rows = draw(st.lists(
        st.lists(st.floats(1e-6, 1.0), min_size=c, max_size=c),
        min_size=m, max_size=m))
    stack = np.asarray(rows)
    return stack / stack.sum(axis=1, keepdims=True)


class TestStackProperties:
    @given(stacks(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_model_permutation_invariance(self, stack, pyrandom):
        perm = list(range(stack.shape[0]))
        pyrandom.shuffle(perm)
        shuffled = stack[perm]
        assert pds(shuffled)[0] == pds(stack)[0]
        assert abs(jsd(shuffled) - jsd(stack)) < 1e-12

    @given(stacks())
    @settings(max_examples=150)
    def test_identity_and_sandwich(self, stack):
        assert abs(jsd(stack) - mutual_information_bruteforce(stack)) < 1e-9
        assert check_sandwich(stack).ok


class TestScoreDataset:
    def _population(self, root, rows_per_model, labels, c):
        """The manifest of these models' files, their TensorFiles, and
        their tensors as loaded, in the files' order."""
        man = make_manifest(labels, c, [f"m{i}" for i in range(len(rows_per_model))])
        tensors = [tensor_from_rows(f"m{i}", rows)
                   for i, rows in enumerate(rows_per_model)]
        man, files = saved_population(man, tensors, root)
        return man, files, [load_tensor(man, mid) for mid in files]

    def test_agreeing_models(self, tmp_path):
        rows = [[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]]
        man, files, _ = self._population(tmp_path, [rows, rows], [0, 1, 0], 2)
        table = score_dataset(man, files)
        assert np.allclose(table.jsd_bits, 0.0, atol=1e-9)
        assert np.allclose(table.pds_env, 1.0, atol=1e-6)

    def test_single_sample_consistency(self, rng, tmp_path):
        stack = random_stack(rng, m=3, c=4)
        man, files, tensors = self._population(
            tmp_path, [stack[i:i + 1] for i in range(3)], [0], 4)
        table = score_dataset(man, files)
        stack64 = np.stack([t.values[0].astype(np.float64) for t in tensors])
        stack64 /= stack64.sum(axis=1, keepdims=True)
        assert abs(table.pds_env[0] - pds(stack64)[0]) < 1e-12
        assert abs(table.jsd_bits[0] - jsd(stack64)) < 1e-12

    def test_matches_per_sample_loop_oracle(self, rng, tmp_path):
        n, c, m = 40, 4, 5
        labels = rng.integers(0, c, n)
        rows = []
        for _ in range(m):
            raw = rng.random((n, c)) + 1e-6
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        man, files, tensors = self._population(tmp_path, rows, labels, c)
        table = score_dataset(man, files)
        for i in range(n):
            stack = np.stack([t.values[i].astype(np.float64) for t in tensors])
            stack /= stack.sum(axis=1, keepdims=True)
            assert abs(table.pds_env[i] - pds(stack)[0]) < 1e-12
            assert abs(table.jsd_bits[i] - jsd(stack)) < 1e-12
            assert abs(table.mean_entropy_bits[i]
                       - np.mean([entropy2_naive(r) for r in stack])) < 1e-12

    def test_table_invariants(self, rng, tmp_path):
        n, c, m = 30, 3, 4
        labels = rng.integers(0, c, n)
        rows = []
        for _ in range(m):
            raw = rng.random((n, c)) + 1e-6
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        man, files, _ = self._population(tmp_path, rows, labels, c)
        table = score_dataset(man, files)
        assert np.array_equal(table.pds_eq1, table.pds_env / c)
        raw_gap = table.mixture_entropy_bits - table.mean_entropy_bits
        assert (raw_gap >= -1e-9).all()
        assert (table.jsd_bits >= 0.0).all()
        assert np.array_equal(table.sample_index, np.arange(n))

    def test_too_few_models(self, tmp_path):
        man, files, _ = self._population(tmp_path, [[[1.0, 0.0]]], [0], 2)
        with pytest.raises(TooFewModels):
            score_dataset(man, files)

    def test_csv_round_trip(self, tmp_path, rng):
        n, c = 12, 3
        labels = rng.integers(0, c, n)
        rows = []
        for _ in range(3):
            raw = rng.random((n, c)) + 1e-6
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        man, files, _ = self._population(tmp_path / "pop", rows, labels, c)
        table = score_dataset(man, files)
        path = tmp_path / "scores.csv"
        write_scores_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == n + 1
        loaded = read_scores_csv(path)
        assert np.allclose(loaded.pds_env, table.pds_env, rtol=1e-8)
        assert np.allclose(loaded.jsd_bits, table.jsd_bits, rtol=1e-8, atol=1e-8)
        # rewriting the parsed table reproduces the file byte for byte
        write_scores_csv(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_score_dataset_shape_mismatch(tmp_path):
    man = make_manifest([0, 1], 2, ["a", "b"])
    good = tensor_from_rows("a", [[1, 0], [0, 1]])
    bad = tensor_from_rows("b", [[1, 0]])
    man, files = saved_population(man, [good, bad], tmp_path)
    with pytest.raises(ShapeMismatch):
        score_dataset(man, files)


# --- striped scoring against the full-stack version it replaced ---------------

def entropy_bits_reference(dist, axis=-1):
    """entropy_bits with its former outer np.where, which changes no bit."""
    p = np.asarray(dist, dtype=np.float64)
    logs = np.where(p > 0.0, np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return -(p * logs).sum(axis=axis)


def score_dataset_reference(tensors):
    """All samples at once, in one (M, N, C) float64 stack."""
    v = np.stack([t.values for t in tensors]).astype(np.float64)
    v /= v.sum(axis=2, keepdims=True)
    m, n, c = v.shape
    cap = float(min(m, c))
    env = np.clip(v.max(axis=0).sum(axis=1), 1.0, cap)
    mean_ent = entropy_bits_reference(v, axis=2).mean(axis=0)
    mix_ent = entropy_bits_reference(v.mean(axis=0), axis=1)
    return {
        "pds_env": env,
        "pds_eq1": env / c,
        "jsd_bits": np.clip(mix_ent - mean_ent, 0.0, math.log2(cap)),
        "mean_entropy_bits": mean_ent,
        "mixture_entropy_bits": mix_ent,
    }


def random_population(rng, m, n, c):
    """Flat, peaked and one-hot rows, so some entries are exactly zero."""
    tensors = []
    for i in range(m):
        raw = rng.random((n, c)) ** rng.choice([1.0, 8.0], size=(n, 1))
        onehot = rng.random(n) < 0.1
        raw[onehot] = np.eye(c)[rng.integers(0, c, onehot.sum())]
        tensors.append(PredictionTensor.from_values(
            f"m{i}", (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)))
    return make_manifest(rng.integers(0, c, n), c, [t.model_id for t in tensors]), tensors


def assert_equals_reference(root, manifest, tensors):
    """Scores of the tensors' files, against the reference of their rows as
    loaded, stacked in the files' order."""
    manifest, files = saved_population(manifest, tensors, root)
    table = score_dataset(manifest, files)
    assert table.sample_index.tobytes() == np.arange(manifest.num_samples).tobytes()
    loaded = [load_tensor(manifest, mid) for mid in files]
    for name, want in score_dataset_reference(loaded).items():
        assert getattr(table, name).tobytes() == want.tobytes(), name


@contextmanager
def block_rows(c, rows):
    """Make score_dataset read and score ``rows`` samples of c classes per
    stripe, by its byte budget."""
    with mock.patch.object(store, "_CHUNK_BYTES", rows * c * 4):
        yield


B = 256


@pytest.mark.parametrize("m, n, c", [
    (5, 37, 4),             # below one stripe
    (9, 2 * B, 4),          # a multiple of the stripe size
    (12, 2 * B + 45, 100),  # not a multiple
    (9, B + 1, 3),          # a 1-sample tail
    (2, 3 * B + 5, 4),      # two models
    (30, 1, 100),           # a single sample
    (17, 1, 4),             # a single sample of 8 or more models, whose entropies
    (17, 1, 10),            # numpy sums pairwise (this seed tells the orders apart)
])
def test_score_blocks_equal_full_stack(tmp_path, m, n, c):
    with block_rows(c, B):
        assert_equals_reference(tmp_path, *random_population(np.random.default_rng(n),
                                                             m, n, c))


@settings(max_examples=60)
@given(m=st.sampled_from([2, 3, 8, 9, 17]), c=st.sampled_from([1, 2, 4, 100]),
       rows=st.sampled_from([1, 2, 3, 8, 64, B]), n=st.integers(1, 2 * B + 3),
       at_bound=st.sampled_from([None, 0, 1]), seed=st.integers(0, 2**32 - 1))
def test_score_blocks_equal_full_stack_hypothesis(m, c, rows, n, at_bound, seed):
    # rows=1 scores one sample per stripe
    if at_bound is not None:  # a multiple of the stripe size, or a 1-sample tail
        n = rows * (n % 4 + 1) + at_bound
    with block_rows(c, rows), tempfile.TemporaryDirectory() as tmp:
        assert_equals_reference(Path(tmp), *random_population(np.random.default_rng(seed),
                                                              m, n, c))


def test_score_default_blocks_equal_full_stack(tmp_path):
    # the default stripe holds all 97 samples of 100 classes of 100 models
    assert_equals_reference(tmp_path, *random_population(np.random.default_rng(5),
                                                         100, 97, 100))


def test_score_peak_allocation_bounded(tmp_path):
    # the old full stack alone took M*N*C*8 bytes
    m, n, c = 10, 40 * B, 20
    manifest, files = saved_population(
        *random_population(np.random.default_rng(0), m, n, c), tmp_path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        score_dataset(manifest, files)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < m * n * c * 8 / 4


# --- scoring streamed from the tensor files ------------------------------------

# A case's stripe reads ``per_read`` blocks of ``rows`` samples at once, as
# the separate read and scoring budgets once did.
@pytest.mark.parametrize("m, n, c, rows, per_read", [
    (5, 37, 4, 8, 3),             # N a multiple of neither size
    (9, 8 * 3 * 2 + 1, 4, 8, 3),  # a 1-sample tail
    (2, 50, 3, 4, 2),             # two models
    (6, 41, 1, 4, 2),             # one class
    (7, 1, 4, 8, 3),              # one sample
    (12, 301, 100, None, None),   # the default budgets
])
def test_streamed_scores_equal_loaded(tmp_path, m, n, c, rows, per_read):
    manifest, tensors = random_population(np.random.default_rng(n), m, n, c)
    if rows is None:
        assert_equals_reference(tmp_path, manifest, tensors)
    else:
        with block_rows(c, rows * per_read):
            assert_equals_reference(tmp_path, manifest, tensors)


@settings(max_examples=30)
@given(m=st.sampled_from([2, 3, 9]), c=st.sampled_from([1, 4, 100]),
       rows=st.sampled_from([2, 3, 8]), per_read=st.sampled_from([1, 2, 5]),
       n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_streamed_scores_equal_loaded_hypothesis(m, c, rows, per_read, n, seed):
    manifest, tensors = random_population(np.random.default_rng(seed), m, n, c)
    with block_rows(c, rows * per_read), tempfile.TemporaryDirectory() as tmp:
        assert_equals_reference(Path(tmp), manifest, tensors)


def test_score_reads_each_payload_byte_once(tmp_path, monkeypatch):
    m, n, c, rows = 6, 50, 4, 8
    manifest, files = saved_population(
        *random_population(np.random.default_rng(2), m, n, c), tmp_path)
    opened, read = [], []
    open_dten, read_into = dten.open_dten, dten.read_into

    def counting_open(path):
        opened.append(Path(path).name)
        return open_dten(path)

    def counting_read(f, out, offset):
        read.append(out.nbytes)
        read_into(f, out, offset)

    monkeypatch.setattr(dten, "open_dten", counting_open)
    monkeypatch.setattr(dten, "read_into", counting_read)
    with block_rows(c, rows):
        score_dataset(manifest, files)
    assert sum(read) == m * n * c * 4
    stripes = -(-n // rows)
    assert sorted(Counter(opened).values()) == [stripes] * m  # once per model per stripe
    read.clear()
    files.check()  # the pass left the files checked
    assert read == []


ROW_FAULTS = {"nan": np.nan, "outside": 1.5, "negative": -0.25, "sum": None}


def write_faulty(path, raw, row_faults, file_fault):
    """Write ``raw`` to ``path`` with the given (fault, row) pairs and file
    fault: a trailing byte, swapped dims or no file at all."""
    raw = raw.copy()
    for fault, row in row_faults:
        if ROW_FAULTS[fault] is None:
            raw[row] *= 0.99
        else:
            raw[row, row % raw.shape[1]] = ROW_FAULTS[fault]
    data = dten.dten_bytes(raw)
    if file_fault == "trailing":
        data += b"\0"
    elif file_fault == "dims":
        data = data[:8] + struct.pack("<QQ", raw.shape[1], raw.shape[0]) + data[24:]
    if file_fault != "missing":
        path.write_bytes(data)


def raised(fn):
    """The class and message of what ``fn`` raises, or None."""
    try:
        fn()
    except DiscoError as e:
        return type(e), str(e)
    return None


@settings(max_examples=80)
@given(row_faults=st.lists(st.lists(st.tuples(st.sampled_from(sorted(ROW_FAULTS)),
                                              st.integers(0, 12)), max_size=2),
                           min_size=4, max_size=4),
       file_faults=st.lists(st.sampled_from([None, None, None, "trailing", "dims",
                                             "missing"]), min_size=4, max_size=4),
       rows=st.sampled_from([1, 4, 13]), seed=st.integers(0, 2**32 - 1))
def test_score_raises_what_check_raises(row_faults, file_faults, rows, seed):
    # the one pass reads the models in sorted order, stripe by stripe, but
    # raises for the first model at fault in the order given, as check does
    n, c, ids = 13, 4, ["m2", "m0", "m3", "m1"]
    rng = np.random.default_rng(seed)
    manifest = make_manifest(rng.integers(0, c, n), c, ids)
    with tempfile.TemporaryDirectory() as tmp:
        manifest.base_dir = Path(tmp)
        (Path(tmp) / "tensors").mkdir()
        for mid, faults, file_fault in zip(ids, row_faults, file_faults):
            raw = rng.random((n, c)) ** 4
            write_faulty(Path(tmp) / "tensors" / f"{mid}.dten",
                         (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32),
                         faults, file_fault)
        want = raised(TensorFiles(manifest, ids).check)
        with block_rows(c, rows), warnings.catch_warnings():
            warnings.simplefilter("error")  # no row at fault is scored
            assert raised(lambda: score_dataset(manifest, TensorFiles(manifest, ids))) == want


def streamed_peak(root, n):
    """Traced peak of streamed scoring of 10 models x n samples x 100
    classes, less its N-length output columns."""
    manifest, files = saved_population(
        *random_population(np.random.default_rng(n), 10, n, 100), root)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = score_dataset(manifest, files)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(table) == n
    # the peak falls inside the stripe loop, while the three float64 columns
    # it fills are the only N-length arrays alive
    return peak - 3 * n * 8


def test_streamed_peak_does_not_grow_with_n(tmp_path):
    small = streamed_peak(tmp_path / "small", 4000)
    large = streamed_peak(tmp_path / "large", 16000)
    assert abs(large - small) < 64 * 1024
    assert large < 10 * 16000 * 100 * 4 / 4  # the tensors alone, as float32


def test_score_rejects_a_model_twice_and_a_manifest_of_other_dims(tmp_path):
    manifest, files = saved_population(
        *random_population(np.random.default_rng(1), 3, 10, 4), tmp_path)
    ids = manifest.model_ids()
    with pytest.raises(InvalidConfig, match="more than once"):
        score_dataset(manifest, TensorFiles(manifest, ids + ids[:1]))
    other = make_manifest(np.zeros(11), 4, ids)
    with pytest.raises(ShapeMismatch, match=r"shape \(10, 4\), expected \(11, 4\)"):
        score_dataset(other, files)
