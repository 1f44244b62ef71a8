from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disco.errors import InvalidDistribution, LengthMismatch, NonZeroSum, TooFewModels
from disco.scoring import (
    _BLOCK_ROWS,
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

from disco.store import PredictionTensor

from conftest import make_manifest, random_stack, tensor_from_rows


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
    def _population(self, rows_per_model, labels, c):
        man = make_manifest(labels, c, [f"m{i}" for i in range(len(rows_per_model))])
        tensors = [tensor_from_rows(f"m{i}", rows)
                   for i, rows in enumerate(rows_per_model)]
        return man, tensors

    def test_agreeing_models(self):
        rows = [[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]]
        man, tensors = self._population([rows, rows], [0, 1, 0], 2)
        table = score_dataset(man, tensors)
        assert np.allclose(table.jsd_bits, 0.0, atol=1e-9)
        assert np.allclose(table.pds_env, 1.0, atol=1e-6)

    def test_single_sample_consistency(self, rng):
        stack = random_stack(rng, m=3, c=4)
        man, tensors = self._population(
            [stack[i:i + 1] for i in range(3)], [0], 4)
        table = score_dataset(man, tensors)
        stack64 = np.stack([t.values[0].astype(np.float64) for t in tensors])
        stack64 /= stack64.sum(axis=1, keepdims=True)
        assert abs(table.pds_env[0] - pds(stack64)[0]) < 1e-12
        assert abs(table.jsd_bits[0] - jsd(stack64)) < 1e-12

    def test_matches_per_sample_loop_oracle(self, rng):
        n, c, m = 40, 4, 5
        labels = rng.integers(0, c, n)
        rows = []
        for _ in range(m):
            raw = rng.random((n, c)) + 1e-6
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        man, tensors = self._population(rows, labels, c)
        table = score_dataset(man, tensors)
        for i in range(n):
            stack = np.stack([t.values[i].astype(np.float64) for t in tensors])
            stack /= stack.sum(axis=1, keepdims=True)
            assert abs(table.pds_env[i] - pds(stack)[0]) < 1e-12
            assert abs(table.jsd_bits[i] - jsd(stack)) < 1e-12
            assert abs(table.mean_entropy_bits[i]
                       - np.mean([entropy2_naive(r) for r in stack])) < 1e-12

    def test_table_invariants(self, rng):
        n, c, m = 30, 3, 4
        labels = rng.integers(0, c, n)
        rows = []
        for _ in range(m):
            raw = rng.random((n, c)) + 1e-6
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        man, tensors = self._population(rows, labels, c)
        table = score_dataset(man, tensors)
        assert np.array_equal(table.pds_eq1, table.pds_env / c)
        raw_gap = table.mixture_entropy_bits - table.mean_entropy_bits
        assert (raw_gap >= -1e-9).all()
        assert (table.jsd_bits >= 0.0).all()
        assert np.array_equal(table.sample_index, np.arange(n))

    def test_too_few_models(self):
        man, tensors = self._population([[[1.0, 0.0]]], [0], 2)
        with pytest.raises(TooFewModels):
            score_dataset(man, tensors)

    def test_csv_round_trip(self, tmp_path, rng):
        n, c = 12, 3
        labels = rng.integers(0, c, n)
        rows = []
        for _ in range(3):
            raw = rng.random((n, c)) + 1e-6
            rows.append(raw / raw.sum(axis=1, keepdims=True))
        man, tensors = self._population(rows, labels, c)
        table = score_dataset(man, tensors)
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


def test_score_dataset_shape_mismatch(rng):
    from disco.errors import ShapeMismatch
    from conftest import make_manifest, tensor_from_rows
    man = make_manifest([0, 1], 2, ["a", "b"])
    good = tensor_from_rows("a", [[1, 0], [0, 1]])
    bad = tensor_from_rows("b", [[1, 0]])
    with pytest.raises(ShapeMismatch):
        score_dataset(man, [good, bad])


# --- block-wise scoring against the full-stack version it replaced -------------

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


def assert_equals_reference(manifest, tensors):
    table = score_dataset(manifest, tensors)
    for name, want in score_dataset_reference(tensors).items():
        assert getattr(table, name).tobytes() == want.tobytes(), name


B = _BLOCK_ROWS


@pytest.mark.parametrize("m, n, c", [
    (5, 37, 4),             # below one block
    (9, 2 * B, 4),          # a multiple of the block size
    (12, 2 * B + 45, 100),  # not a multiple
    (9, B + 1, 3),          # a 1-sample tail
    (2, 3 * B + 5, 4),      # two models
    (30, 1, 100),           # a single sample
])
def test_score_blocks_equal_full_stack(m, n, c):
    assert_equals_reference(*random_population(np.random.default_rng(n), m, n, c))


@settings(max_examples=40)
@given(m=st.sampled_from([2, 3, 8, 9, 17]), c=st.sampled_from([1, 2, 4, 100]),
       n=st.one_of(st.integers(1, 2 * B + 3), st.sampled_from([B, B + 1, 2 * B + 1])),
       seed=st.integers(0, 2**32 - 1))
def test_score_blocks_equal_full_stack_hypothesis(m, c, n, seed):
    assert_equals_reference(*random_population(np.random.default_rng(seed), m, n, c))


def test_score_peak_allocation_bounded():
    # the old full stack alone took M*N*C*8 bytes
    m, n, c = 10, 40 * B, 20
    manifest, tensors = random_population(np.random.default_rng(0), m, n, c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        score_dataset(manifest, tensors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < m * n * c * 8 / 4
