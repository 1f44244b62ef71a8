from __future__ import annotations

import itertools
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disco import selection
from disco.errors import (
    BudgetExceedsDataset,
    InsufficientModels,
    InvariantViolation,
    SchemaError,
    ShapeMismatch,
)
from disco.scoring import ScoreTable
from disco.selection import (
    build_embeddings,
    distance_matrix,
    kmedoids_objective,
    kmedoids_with_trace,
    load_subset,
    save_subset,
    select_best_for_validation,
    select_kmedoids,
    select_random,
    select_stratified_topk,
    select_topk,
)
from disco.store import PredictionTensor, accuracy, correctness, load_tensor

from conftest import make_manifest, saved_population, tensor_from_rows


def table_from_scores(scores):
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    zeros = np.zeros(n)
    return ScoreTable(sample_index=np.arange(n, dtype=np.int64),
                      pds_env=scores, pds_eq1=scores / 4.0, jsd_bits=scores,
                      mean_entropy_bits=zeros, mixture_entropy_bits=zeros)


class TestRandom:
    def test_exhaustive_budget(self):
        subset = select_random(7, 7, seed=3)
        assert subset.indices.tolist() == list(range(7))

    def test_deterministic(self):
        a = select_random(100, 1, seed=42)
        b = select_random(100, 1, seed=42)
        assert a.indices.tolist() == b.indices.tolist()

    def test_uniform_frequency(self):
        # Monte-Carlo: each index appears with frequency K/N +- 3 sigma
        n, k, reps = 10, 3, 10000
        counts = np.zeros(n)
        for seed in range(reps):
            counts[select_random(n, k, seed).indices] += 1
        freq = counts / reps
        sigma = np.sqrt((k / n) * (1 - k / n) / reps)
        assert np.all(np.abs(freq - k / n) <= 3 * sigma + 1e-12)

    def test_budget_errors(self):
        with pytest.raises(BudgetExceedsDataset):
            select_random(5, 6, seed=0)
        with pytest.raises(BudgetExceedsDataset):
            select_random(5, 0, seed=0)


class TestTopK:
    def test_order(self):
        subset = select_topk(table_from_scores([0.1, 0.9, 0.5]), 2)
        assert subset.indices.tolist() == [1, 2]

    def test_tie_break_low_index(self):
        subset = select_topk(table_from_scores([0.5, 0.5, 0.5, 0.5]), 3)
        assert subset.indices.tolist() == [0, 1, 2]

    def test_matches_sort_oracle(self, rng):
        for _ in range(30):
            scores = rng.random(50)
            k = int(rng.integers(1, 51))
            subset = select_topk(table_from_scores(scores), k)
            oracle = sorted(sorted(range(50), key=lambda i: (-scores[i], i))[:k])
            assert subset.indices.tolist() == oracle

    def test_monotone_rescaling_invariance(self, rng):
        # pds_env and pds_eq1 differ by a positive constant factor
        scores = rng.random(40)
        t = table_from_scores(scores)
        by_env = select_topk(t, 11, "pds_env")
        by_eq1 = select_topk(t, 11, "pds_eq1")
        assert by_env.indices.tolist() == by_eq1.indices.tolist()


class TestStratified:
    def test_even_split(self):
        t = table_from_scores([0.9, 0.8, 0.7, 0.6])
        tags = ["a", "a", "b", "b"]
        subset = select_stratified_topk(t, tags, 4)
        assert subset.indices.tolist() == [0, 1, 2, 3]

    def test_exact_quota_per_tag(self, rng):
        scores = rng.random(30)
        tags = [f"t{i % 3}" for i in range(30)]
        subset = select_stratified_topk(table_from_scores(scores), tags, 9)
        counts = {}
        for i in subset.indices:
            counts[tags[i]] = counts.get(tags[i], 0) + 1
        assert counts == {"t0": 3, "t1": 3, "t2": 3}

    def test_remainder_goes_to_global_best(self):
        scores = [0.1, 0.2, 0.3, 0.95, 0.5, 0.6]
        tags = ["a", "a", "b", "b", "c", "c"]
        subset = select_stratified_topk(table_from_scores(scores), tags, 4)
        # per-tag best: 1, 3, 5; remainder: global best unselected is 4 (0.5)
        assert subset.indices.tolist() == [1, 3, 4, 5]

    def test_single_tag_equals_topk(self, rng):
        scores = rng.random(25)
        t = table_from_scores(scores)
        a = select_stratified_topk(t, ["x"] * 25, 7)
        b = select_topk(t, 7)
        assert a.indices.tolist() == b.indices.tolist()


class TestEmbeddings:
    def test_conf_single_model(self, tmp_path):
        man, files = saved_population(make_manifest([1], 2, ["m"]),
                                      [tensor_from_rows("m", [[0.3, 0.7]])], tmp_path)
        emb = build_embeddings(files, man, "conf")
        assert emb.shape == (1, 1)
        assert abs(emb[0, 0] - 0.7) < 1e-6

    def test_corr_perfect_model(self, tmp_path):
        t = tensor_from_rows("m", [[0.9, 0.1], [0.2, 0.8], [1.0, 0.0]])
        man, files = saved_population(make_manifest([0, 1, 0], 2, ["m"]), [t], tmp_path)
        emb = build_embeddings(files, man, "corr")
        assert emb[:, 0].tolist() == [1.0, 1.0, 1.0]

    def test_corr_column_means_are_accuracies(self, rng, tmp_path):
        n, c, m = 30, 3, 4
        labels = rng.integers(0, c, n)
        man = make_manifest(labels, c, [f"m{i}" for i in range(m)])
        tensors = []
        for i in range(m):
            raw = rng.random((n, c)) + 1e-6
            raw /= raw.sum(axis=1, keepdims=True)
            tensors.append(PredictionTensor.from_values(f"m{i}", raw.astype(np.float32)))
        man, files = saved_population(man, tensors, tmp_path)
        emb = build_embeddings(files, man, "corr")
        for i, mid in enumerate(files):
            t = load_tensor(man, mid)
            assert abs(emb[:, i].mean() - accuracy(correctness(t, man))) < 1e-12


class TestKMedoids:
    def test_every_point_its_own_medoid(self, rng):
        x = rng.random((6, 3))
        subset = select_kmedoids(x, 6, seed=0)
        assert subset.indices.tolist() == list(range(6))
        assert kmedoids_objective(x, subset.indices) == 0.0

    def test_two_separated_clusters(self):
        x = np.array([[0.0, 0.0]] * 6 + [[10.0, 10.0]] * 3)
        subset = select_kmedoids(x, 2, seed=1)
        sides = {0 if x[i, 0] < 5 else 1 for i in subset.indices}
        assert sides == {0, 1}
        w = sorted(subset.weights.tolist())
        assert np.allclose(w, [3 / 9, 6 / 9])

    def test_within_5pct_of_exhaustive(self, rng):
        for n, k in [(9, 2), (12, 3), (10, 3), (12, 2)]:
            x = rng.random((n, 4))
            subset = select_kmedoids(x, k, seed=0)
            ours = kmedoids_objective(x, subset.indices)
            best = min(kmedoids_objective(x, combo)
                       for combo in itertools.combinations(range(n), k))
            assert ours <= 1.05 * best + 1e-12

    def test_objective_trace_non_increasing(self, rng):
        x = rng.random((40, 5))
        _, trace = kmedoids_with_trace(x, 5, seed=2)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_degenerate_identical_rows(self):
        x = np.ones((8, 3))
        subset = select_kmedoids(x, 3, seed=0)
        assert subset.indices.tolist() == [0, 1, 2]
        assert np.allclose(subset.weights, 1 / 3)

    def test_deterministic(self, rng):
        x = rng.random((25, 4))
        a = select_kmedoids(x, 4, seed=9)
        b = select_kmedoids(x, 4, seed=9)
        assert a.indices.tolist() == b.indices.tolist()
        assert np.array_equal(a.weights, b.weights)


# --- reference k-medoids -----------------------------------------------------
# The direct swap search: every pass rebuilds both N x N clipped distance
# matrices and re-sums every cluster.  The incremental search in
# disco.selection must reproduce its medoids, weights and trace bit for bit.

REF_MAX_SWAP_PASSES = 100


def _ref_distance_matrix(x: np.ndarray) -> np.ndarray:
    g = x @ x.T
    sq = np.diag(g).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.T)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


def _ref_seed_medoids(d: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    n = d.shape[0]
    trials = 2 + int(math.log2(k + 1))
    first = int(rng.integers(n))
    medoids = [first]
    nearest = d[:, first].copy()
    while len(medoids) < k:
        w = nearest ** 2
        total = w.sum()
        if total <= 0.0:
            cand = np.setdiff1d(np.arange(n), medoids)[:trials]
        else:
            cand = rng.choice(n, size=trials, p=w / total)
        best_c, best_obj = -1, np.inf
        for c in np.atleast_1d(cand):
            c = int(c)
            if c in medoids:
                continue
            obj = float(np.minimum(nearest, d[:, c]).sum())
            if obj < best_obj:
                best_obj, best_c = obj, c
        if best_c < 0:
            best_c = int(np.setdiff1d(np.arange(n), medoids)[0])
        medoids.append(best_c)
        np.minimum(nearest, d[:, best_c], out=nearest)
    return medoids


def _ref_kmedoids_with_trace(x: np.ndarray, k: int, seed: int
                             ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(indices, weights, trace)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k > 1 and bool(np.all(x == x[0])):
        return np.arange(k, dtype=np.int64), np.full(k, 1.0 / k), [0.0]

    rng = np.random.default_rng(seed)
    d = _ref_distance_matrix(x)
    medoids = sorted(_ref_seed_medoids(d, k, rng))

    trace: list[float] = []
    prev_obj = np.inf
    for _ in range(REF_MAX_SWAP_PASSES):
        dm = d[:, medoids]
        nearest_pos = dm.argmin(axis=1)
        if k >= 2:
            two = np.partition(dm, 1, axis=1)[:, :2]
            dn1, dn2 = two[:, 0], two[:, 1]
        else:
            dn1 = dm[:, 0]
            dn2 = np.full(n, np.inf)
        base = float(dn1.sum())
        assert base <= prev_obj + 1e-9
        prev_obj = base
        trace.append(base)

        m1 = np.minimum(d, dn1[:, None])
        m2 = np.minimum(d, dn2[:, None])
        s1 = m1.sum(axis=0)
        best = (0.0, -1, -1)
        for pos in range(k):
            mask = nearest_pos == pos
            cost = s1 - m1[mask].sum(axis=0) + m2[mask].sum(axis=0)
            cost[medoids] = np.inf
            c = int(cost.argmin())
            gain = base - float(cost[c])
            if gain > best[0] + 1e-12:
                best = (gain, pos, c)
        if best[1] < 0 or best[0] <= 1e-12:
            break
        medoids[best[1]] = best[2]
        medoids.sort()

    medoids = sorted(medoids)
    assign = d[:, medoids].argmin(axis=1)
    weights = np.bincount(assign, minlength=k).astype(np.float64) / n
    return np.asarray(medoids, dtype=np.int64), weights, trace


def assert_kmedoids_equal_reference(x: np.ndarray, k: int, seed: int) -> list[float]:
    subset, trace = kmedoids_with_trace(x, k, seed)
    want_idx, want_w, want_trace = _ref_kmedoids_with_trace(x, k, seed)
    assert subset.indices.tolist() == want_idx.tolist()
    assert subset.weights.tobytes() == want_w.tobytes()
    assert trace == want_trace
    return trace


@st.composite
def _kmedoids_case(draw):
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["continuous", "bits", "duplicated"]))
    cell = (st.sampled_from([0.0, 1.0]) if kind == "bits"
            else st.floats(-5, 5, allow_nan=False, width=32))
    x = np.array(draw(st.lists(cell, min_size=n * dim, max_size=n * dim)),
                 dtype=np.float64).reshape(n, dim)
    if kind == "duplicated":
        for _ in range(draw(st.integers(1, max(1, n // 2)))):
            x[draw(st.integers(0, n - 1))] = x[draw(st.integers(0, n - 1))]
    k = draw(st.sampled_from([1, n - 1, n]).filter(lambda v: v >= 1)
             | st.integers(1, n))
    return x, k, draw(st.integers(0, 2**31))


@settings(max_examples=200)
@given(_kmedoids_case())
def test_kmedoids_equals_reference(case):
    assert_kmedoids_equal_reference(*case)


@pytest.mark.parametrize("kind, k", [("conf", 10), ("conf", 40), ("corr", 10),
                                     ("corr", 40)])
def test_kmedoids_equals_reference_many_passes(kind, k):
    # sweep-shaped embeddings, large enough for dozens of swaps and slot
    # renumberings
    rng = np.random.default_rng(k)
    ability = rng.random(300)
    x = 1.0 / (1.0 + np.exp(-8.0 * (ability[:, None] - rng.random((1, 20)))))
    if kind == "corr":
        x = (rng.random(x.shape) < x).astype(np.float64)
    for seed in (0, 1):
        assert len(assert_kmedoids_equal_reference(x, k, seed)) > 5


def test_kmedoids_capped_search_equals_reference(monkeypatch):
    monkeypatch.setattr(selection, "MAX_SWAP_PASSES", 2)
    monkeypatch.setitem(globals(), "REF_MAX_SWAP_PASSES", 2)
    x = np.random.default_rng(4).random((80, 6))
    for k in (3, 12):
        assert len(assert_kmedoids_equal_reference(x, k, seed=1)) == 2


@settings(max_examples=100)
@given(_kmedoids_case())
def test_kmedoids_with_given_distances_equals_without(case):
    x, k, seed = case
    d = distance_matrix(x)
    d.flags.writeable = False            # the search must only read it
    subset, trace = kmedoids_with_trace(x, k, seed)
    given, given_trace = kmedoids_with_trace(x, k, seed, distances=d)
    assert given.indices.tolist() == subset.indices.tolist()
    assert given.weights.tobytes() == subset.weights.tobytes()
    assert given_trace == trace


def test_kmedoids_rejects_misshapen_distances():
    x = np.random.default_rng(0).random((6, 2))
    with pytest.raises(ShapeMismatch):
        kmedoids_with_trace(x, 2, seed=0, distances=distance_matrix(x[:5]))


@settings(max_examples=50)
@given(_kmedoids_case())
def test_distance_matrix_exactly_symmetric(case):
    d = distance_matrix(case[0])
    assert np.array_equal(d, d.T)
    assert d.tobytes() == _ref_distance_matrix(case[0]).tobytes()


@settings(max_examples=50)
@given(_kmedoids_case())
def test_small_blocks_equal_reference(case):
    # blocks of one to three rows: the tiled distances, the mirrored
    # blocks and the blockwise cluster sums must keep every float
    x, k, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selection, "_TILE_BYTES", 8 * 3 * x.shape[0])
        mp.setattr(selection, "_SYM_BLOCK", 2)
        assert distance_matrix(x).tobytes() == _ref_distance_matrix(x).tobytes()
        assert_kmedoids_equal_reference(x, k, seed)


def test_column_sums_of_no_rows_are_zero():
    m = np.random.default_rng(0).random((4, 3))
    got = selection._column_sums(m, np.zeros(0, dtype=np.int64), m[0])
    assert got.tobytes() == m[[]].sum(axis=0).tobytes()


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes the call allocates at its peak, beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_distance_matrix_peak_allocation_bounded():
    # the result plus tiles of about 1 MiB; a second N x N array read 2.0
    n = 1500
    x = np.random.default_rng(0).random((n, 50))
    assert traced_peak(distance_matrix, x) <= 1.15 * n * n * 8


def test_kmedoids_peak_allocation_bounded():
    # one clipped copy of the given distances and (k, n) sums; a second
    # clipped copy read 2.16
    n = 1500
    x = np.random.default_rng(0).random((n, 50))
    d = distance_matrix(x)
    assert traced_peak(kmedoids_with_trace, x, 50, 0, distances=d) <= 1.2 * n * n * 8


def test_kmedoids_rejects_increasing_objective(monkeypatch):
    # a swap search that worsens the objective fails loudly, also under -O
    x = np.array([[0.0], [0.1], [0.2], [100.0]])
    monkeypatch.setattr(selection, "_best_swap",
                        lambda m1, s1, s2, medoids, base:
                        (1.0, 0, 0 if medoids == [3] else 3))
    with pytest.raises(InvariantViolation):
        kmedoids_with_trace(x, 1, seed=0)


def _bfv_population(root, rng, m=8, n=60, c=3):
    """The manifest of m models' files, each model's accuracy that of its
    loaded tensor; their TensorFiles; the loaded tensors, in manifest order."""
    labels = rng.integers(0, c, n)
    tensors = []
    man = make_manifest(labels, c, [f"m{i}" for i in range(m)],
                        accuracies=[0.0] * m)
    for i in range(m):
        raw = rng.random((n, c)) + 1e-6
        raw /= raw.sum(axis=1, keepdims=True)
        tensors.append(PredictionTensor.from_values(f"m{i}", raw.astype(np.float32)))
    man, files = saved_population(man, tensors, root)
    loaded = [load_tensor(man, mid) for mid in man.model_ids()]
    for meta, t in zip(man.models, loaded):
        meta.true_accuracy = accuracy(correctness(t, man))
    return man, files, loaded


class TestBestForValidation:
    def test_single_candidate_returned(self, rng, tmp_path):
        man, files, _ = _bfv_population(tmp_path, rng)
        subset = select_best_for_validation(files, man, 5, candidates=1, seed=0)
        expect = select_best_for_validation(files, man, 5, candidates=1, seed=0)
        assert subset.indices.tolist() == expect.indices.tolist()
        assert subset.k == 5

    def test_perfect_proxy_wins(self, rng, tmp_path):
        # doctor the accuracies so one candidate is an exact proxy
        man, files, tensors = _bfv_population(tmp_path, rng, m=6, n=40)
        # find the candidate drawn second for this seed and make it perfect
        probe = np.random.default_rng(7)
        probe.permutation(6)
        cand = [np.sort(probe.choice(40, size=4, replace=False)) for _ in range(3)]
        bits = np.stack([correctness(t, man) for t in tensors]).astype(float)
        target = cand[1]
        for i, m in enumerate(man.models):
            m.true_accuracy = float(bits[i, target].mean())
        subset = select_best_for_validation(files, man, 4, candidates=3, seed=7)
        assert subset.indices.tolist() == target.tolist()

    def test_winner_beats_median_candidate(self, rng, tmp_path):
        man, files, tensors = _bfv_population(tmp_path, rng, m=10, n=80)
        k, cands, seed = 6, 50, 11
        subset = select_best_for_validation(files, man, k, candidates=cands,
                                            seed=seed)

        # independent oracle: replay the candidate draws, score each with a
        # polyfit regression, and compare the winner against the median
        bits = np.stack([correctness(t, man) for t in tensors]).astype(float)
        y = np.array([m.true_accuracy for m in man.models])
        rng2 = np.random.default_rng(seed)
        perm = rng2.permutation(10)
        train, val = perm[:8], perm[8:]
        rmses = []
        by_candidate = {}
        for _ in range(cands):
            idx = np.sort(rng2.choice(80, size=k, replace=False))
            x = bits[:, idx].mean(axis=1)
            if np.var(x[train]) < 1e-18:
                coef = (0.0, float(np.mean(y[train])))
            else:
                coef = np.polyfit(x[train], y[train], 1)
            pred = coef[0] * x[val] + coef[1]
            rmse = float(np.sqrt(np.mean((pred - y[val]) ** 2)))
            rmses.append(rmse)
            by_candidate[tuple(idx.tolist())] = rmse
        winner_rmse = by_candidate[tuple(subset.indices.tolist())]
        assert winner_rmse <= np.median(rmses) + 1e-12
        assert winner_rmse <= min(rmses) + 1e-9

    def test_insufficient_models(self, rng, tmp_path):
        man, files, _ = _bfv_population(tmp_path, rng, m=3)
        with pytest.raises(InsufficientModels):
            select_best_for_validation(files, man, 4, candidates=2, seed=0)


# The loop that scored one candidate at a time.  The blocked scoring in
# disco.selection must pick the same subset from the same draws.

def _ref_scalar_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    vx = float(np.var(x))
    if vx < 1e-18:
        return float(np.mean(y)), 0.0
    b = float(np.cov(x, y, bias=True)[0, 1]) / vx
    a = float(np.mean(y)) - b * float(np.mean(x))
    return a, b


def _ref_best_for_validation(bits: np.ndarray, y: np.ndarray, k: int,
                             candidates: int, seed: int,
                             split_ratio: float) -> np.ndarray:
    m, n = bits.shape
    bits = bits.astype(np.float64)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_train = min(max(int(split_ratio * m), 1), m - 1)
    train, val = perm[:n_train], perm[n_train:]
    best_rmse, best_idx = np.inf, None
    for _ in range(candidates):
        idx = np.sort(rng.choice(n, size=k, replace=False))
        rmse = _ref_rmse(bits[:, idx].mean(axis=1), train, val, y)
        if rmse < best_rmse:
            best_rmse, best_idx = rmse, idx
    return best_idx


def _ref_rmse(sub: np.ndarray, train: np.ndarray, val: np.ndarray,
              y: np.ndarray) -> float:
    a, b = _ref_scalar_fit(sub[train], y[train])
    resid = a + b * sub[val] - y[val]
    return float(np.sqrt(np.mean(resid ** 2)))


def _population_from_bits(root, bits: np.ndarray, accuracies: np.ndarray):
    """The manifest and TensorFiles of two-class tensors (label 0
    everywhere) whose correctness is ``bits``."""
    m, n = bits.shape
    ids = [f"m{i:02d}" for i in range(m)]
    man = make_manifest(np.zeros(n, dtype=np.int64), 2, ids,
                        accuracies=[float(a) for a in accuracies])
    rows = np.where(bits[:, :, None] == 1, [0.75, 0.25], [0.25, 0.75])
    return saved_population(man, [tensor_from_rows(mid, r) for mid, r in zip(ids, rows)],
                            root)


@st.composite
def _bfv_case(draw):
    m = draw(st.integers(4, 60))
    n = draw(st.integers(1, 40))
    # Columns every model answers alike: a candidate made of them alone
    # gives every training model the same subset accuracy.
    constant = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    bits = (rng.random((m, n)) < rng.random((m, 1))).astype(np.uint8)
    bits[:, :constant] = rng.integers(0, 2, constant)
    accuracies = np.clip(bits.mean(axis=1) + 0.1 * rng.standard_normal(m), 0, 1)
    k = draw(st.integers(1, n))
    candidates = draw(st.sampled_from([1, 127, 129, 300])
                      | st.integers(1, 300).filter(lambda c: c % 128 != 0))
    split_ratio = draw(st.sampled_from([0.0, 0.01, 0.5, 0.8, 0.99, 1.0])
                       | st.floats(0.0, 1.0))
    return bits, accuracies, k, candidates, seed % 1000, split_ratio


@settings(max_examples=150)
@given(_bfv_case())
def test_best_for_validation_equals_reference_loop(case):
    bits, accuracies, k, candidates, seed, split_ratio = case
    want = _ref_best_for_validation(bits, accuracies, k, candidates, seed, split_ratio)
    with tempfile.TemporaryDirectory() as tmp:
        man, files = _population_from_bits(tmp, bits, accuracies)
        got = select_best_for_validation(files, man, k, candidates=candidates,
                                         seed=seed, split_ratio=split_ratio)
    assert got.indices.tolist() == want.tolist()


@settings(max_examples=200)
@given(st.integers(2, 120), st.integers(1, 200), st.integers(1, 300),
       st.integers(0, 2**31))
def test_validation_rmse_equals_reference_bits(m, k, rows, seed):
    # The winner is the same only if every candidate's RMSE has the same
    # bits: a one-ulp difference rarely changes which candidate wins.
    rng = np.random.default_rng(seed)
    sub = rng.integers(0, k + 1, size=(rows, m)) / k
    sub[: rows // 4] = sub[: rows // 4, :1]          # constant rows: flat fit
    y = rng.random(m)
    perm = rng.permutation(m)
    n_train = int(rng.integers(1, m))
    train, val = perm[:n_train], perm[n_train:]
    want = np.array([_ref_rmse(row, train, val, y) for row in sub])
    got = selection._validation_rmse(sub, train, val, y)
    assert got.tobytes() == want.tobytes()


def test_best_for_validation_flat_branch_equals_reference_loop(tmp_path):
    # Half the samples are answered alike by every model, so many candidates
    # take the constant-fit branch; the rest compete on a fitted line.
    rng = np.random.default_rng(5)
    bits = (rng.random((40, 30)) < rng.random((40, 1))).astype(np.uint8)
    bits[:, :15] = 1
    accuracies = bits.mean(axis=1)
    man, files = _population_from_bits(tmp_path, bits, accuracies)
    for k, split_ratio in ((3, 0.8), (10, 0.5), (2, 0.0)):
        want = _ref_best_for_validation(bits, accuracies, k, 1000, 1, split_ratio)
        got = select_best_for_validation(files, man, k, candidates=1000, seed=1,
                                         split_ratio=split_ratio)
        assert got.indices.tolist() == want.tolist()


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        x = rng.random((20, 3))
        subset = select_kmedoids(x, 4, seed=5)
        path = tmp_path / "subset.json"
        save_subset(subset, path, provenance={"inputs": {"manifest": "abc"}})
        loaded = load_subset(path)
        assert loaded.indices.tolist() == subset.indices.tolist()
        assert np.allclose(loaded.weights, subset.weights)
        assert loaded.method == subset.method

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "subset.json"
        path.write_text('{"method": "random"}')
        with pytest.raises(SchemaError):
            load_subset(path)
