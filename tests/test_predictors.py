from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disco.errors import (
    DimensionMismatch,
    EmptyModel,
    InvalidConfig,
    InvariantViolation,
    MissingWeights,
    TooFewModels,
)
from disco.predictors import (
    ForestConfig,
    PredictorModel,
    Tree,
    load_predictor,
    predict,
    predict_weighted_sum,
    save_predictor,
    train,
)
from disco.selection import AnchorSubset, build_embeddings, select_kmedoids
from disco.signatures import pca_fit, pca_transform
from disco.store import accuracy, correctness, load_tensor

from conftest import make_manifest, saved_population


class TestLinear:
    def test_collinear_exact_fit(self, rng):
        x = rng.random((12, 1)) * 0.5
        y = 2.0 * x[:, 0]
        model = train("linear", x, y)
        assert abs(model.linear_weights[0] - 2.0) < 1e-6
        assert abs(model.linear_intercept) < 1e-6

    def test_matches_normal_equations_oracle(self, rng):
        x = rng.standard_normal((30, 5))
        y = rng.random(30)
        model = train("linear", x, y)
        # explicit oracle: w = (A'A + eps I)^-1 A'y with the intercept column
        a = np.column_stack([x, np.ones(30)])
        gram = a.T @ a + 1e-8 * np.eye(6)
        w = np.linalg.inv(gram) @ a.T @ y
        assert np.abs(model.linear_weights - w[:5]).max() < 1e-6
        assert abs(model.linear_intercept - w[5]) < 1e-6

    def test_prediction_clamped(self, rng):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = train("linear", x, y)
        assert predict(model, np.array([5.0])) == 1.0
        assert predict(model, np.array([-5.0])) == 0.0


class TestKnn:
    def test_nearest_is_self(self, rng):
        x = rng.standard_normal((8, 4))
        y = rng.random(8)
        model = train("knn", x, y, k_neighbors=1)
        for i in range(8):
            assert predict(model, x[i]) == y[i]

    def test_all_neighbors_gives_global_mean(self, rng):
        x = rng.standard_normal((9, 3))
        y = rng.random(9)
        model = train("knn", x, y, k_neighbors=9)
        assert abs(predict(model, rng.standard_normal(3)) - y.mean()) < 1e-12

    def test_distance_ties_break_by_index(self):
        x = np.array([[1.0], [1.0], [2.0]])
        y = np.array([0.2, 0.8, 0.5])
        model = train("knn", x, y, k_neighbors=1)
        assert predict(model, np.array([1.0])) == 0.2

    def test_prediction_within_neighbor_range(self, rng):
        x = rng.standard_normal((20, 4))
        y = rng.random(20)
        model = train("knn", x, y, k_neighbors=5)
        for _ in range(20):
            q = rng.standard_normal(4)
            d2 = ((x - q) ** 2).sum(axis=1)
            nbrs = y[np.argsort(d2, kind="stable")[:5]]
            p = predict(model, q)
            assert nbrs.min() - 1e-12 <= p <= nbrs.max() + 1e-12

    def test_translation_invariance(self, rng):
        x = rng.standard_normal((15, 3))
        y = rng.random(15)
        shift = rng.standard_normal(3) * 7.0
        a = train("knn", x, y, k_neighbors=4)
        b = train("knn", x + shift, y, k_neighbors=4)
        for _ in range(10):
            q = rng.standard_normal(3)
            assert predict(a, q) == predict(b, q + shift)


class TestForest:
    def test_memorizes_with_single_unbagged_tree(self, rng):
        x = rng.standard_normal((16, 3))
        y = rng.random(16)
        cfg = ForestConfig(n_trees=1, min_leaf=1, bootstrap=False)
        model = train("random_forest", x, y, forest=cfg, seed=0)
        preds = np.array([predict(model, xi) for xi in x])
        assert np.abs(preds - y).max() < 1e-12

    def test_matches_per_tree_traversal_oracle(self, rng):
        x = rng.standard_normal((25, 4))
        y = rng.random(25)
        model = train("random_forest", x, y, forest=ForestConfig(n_trees=12), seed=3)
        for _ in range(10):
            q = rng.standard_normal(4)
            # independent walker over the flat node tables
            votes = []
            for t in model.trees:
                node = 0
                while t.feature[node] != -1:
                    if q[t.feature[node]] <= t.threshold[node]:
                        node = int(t.left[node])
                    else:
                        node = int(t.right[node])
                votes.append(t.value[node])
            assert abs(predict(model, q) - np.clip(np.mean(votes), 0, 1)) < 1e-12

    def test_split_between_adjacent_doubles(self):
        # the midpoint of a and the next double up rounds up to it: a cut
        # there sent every row left, and growth recursed without end
        a = 0.13387878
        b = np.nextafter(a, 2)
        assert 0.5 * (a + b) == b
        x = np.array([[a], [b], [a], [b], [a], [b]])
        y = np.array([0.1, 0.7, 0.2, 0.8, 0.3, 0.9])
        cfg = ForestConfig(n_trees=1, min_leaf=1, bootstrap=False)
        model = train("random_forest", x, y, forest=cfg, seed=0)
        tree = model.trees[0]
        assert tree.feature.tolist() == [0, -1, -1] and tree.threshold[0] == a
        assert predict(model, np.array([a])) == pytest.approx(0.2)
        assert predict(model, np.array([b])) == pytest.approx(0.8)
        want = _ref_fit_one_tree(x, y, cfg, 0, 0)
        assert np.array_equal(tree.threshold, want.threshold)

    def test_training_mse_not_worse_than_mean(self, rng):
        x = rng.standard_normal((30, 5))
        y = rng.random(30)
        model = train("random_forest", x, y, forest=ForestConfig(n_trees=50), seed=1)
        preds = np.array([predict(model, xi) for xi in x])
        assert np.mean((preds - y) ** 2) <= np.var(y)

    def test_deterministic_and_thread_invariant(self, rng):
        x = rng.standard_normal((20, 6))
        y = rng.random(20)
        a = train("random_forest", x, y, forest=ForestConfig(n_trees=8), seed=5)
        b = train("random_forest", x, y, forest=ForestConfig(n_trees=8), seed=5,
                  threads=4)
        q = rng.standard_normal(6)
        assert predict(a, q) == predict(b, q)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.feature, tb.feature)

    @pytest.mark.parametrize("affinity, cpus, pools", [
        (range(3), 3, [3]), (range(64), 64, [8]), (None, None, []),
        ({0}, 64, []),                  # pinned to one CPU of many: no worker
    ])
    def test_workers_capped_at_cpu_count(self, rng, monkeypatch, affinity, cpus, pools):
        # a fake fork records its worker count and fits the trees in this
        # process; affinity None is a platform without sched_getaffinity
        import os

        from disco import workers
        sizes = []

        def serial_fork(fn, tasks, count):
            sizes.append(count)
            return [fn(t) for t in tasks]

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(workers, "_forked", serial_fork)
        x, y = rng.standard_normal((12, 3)), rng.random(12)
        cfg = ForestConfig(n_trees=8)
        capped = train("random_forest", x, y, forest=cfg, seed=1, threads=5000)
        serial = train("random_forest", x, y, forest=cfg, seed=1)
        assert sizes == pools
        for a, b in zip(capped.trees, serial.trees, strict=True):
            assert all(np.array_equal(getattr(a, col), getattr(b, col))
                       for col in ("feature", "threshold", "left", "right", "value"))

    def test_feature_subsampling_runs(self, rng):
        x = rng.standard_normal((18, 9))
        y = rng.random(18)
        model = train("random_forest", x, y,
                      forest=ForestConfig(n_trees=5, feature_frac=1 / 3), seed=2)
        assert len(model.trees) == 5

    def test_leaf_structure_well_formed(self, rng):
        x = rng.standard_normal((20, 3))
        y = rng.random(20)
        model = train("random_forest", x, y, forest=ForestConfig(n_trees=6), seed=7)
        for t in model.trees:
            n = t.feature.size
            for node in range(n):
                if t.feature[node] == -1:
                    assert t.left[node] == -1 and t.right[node] == -1
                else:
                    assert 0 < t.left[node] < n and 0 < t.right[node] < n


# --- reference forest --------------------------------------------------------
# A direct CART builder: every node argsorts its own rows and loops over the
# features.  The presorted builder in disco.predictors must reproduce its
# trees exactly, node table column by column.

def _ref_best_split(x: np.ndarray, y: np.ndarray, feats: np.ndarray,
                    min_leaf: int) -> tuple[int, float] | None:
    """Lowest-SSE threshold over the candidate features; None if no valid cut."""
    n = y.size
    xs = x[:, feats]
    order = np.argsort(xs, axis=0, kind="stable")
    xs = np.take_along_axis(xs, order, axis=0)
    ys = y[order]
    cy = np.cumsum(ys, axis=0)
    cy2 = np.cumsum(ys * ys, axis=0)
    tot_y, tot_y2 = cy[-1], cy2[-1]

    counts = np.arange(1, n, dtype=np.float64)
    left = cy2[:-1] - cy[:-1] ** 2 / counts[:, None]
    right = (tot_y2 - cy2[:-1]) - (tot_y - cy[:-1]) ** 2 / (n - counts)[:, None]
    cost = left + right
    pos_ok = (counts >= min_leaf) & (counts <= n - min_leaf)
    cut_ok = xs[1:] > xs[:-1]
    cost[~(pos_ok[:, None] & cut_ok)] = np.inf

    best: tuple[float, int, float] | None = None
    for j in range(feats.size):
        i = int(cost[:, j].argmin())
        c = float(cost[i, j])
        if np.isfinite(c) and (best is None or c < best[0]):
            t = float(0.5 * (xs[i, j] + xs[i + 1, j]))
            best = (c, int(feats[j]), float(xs[i, j]) if t == xs[i + 1, j] else t)
    if best is None:
        return None
    return best[1], best[2]


def _ref_grow_tree(x: np.ndarray, y: np.ndarray, cfg: ForestConfig,
                   rng: np.random.Generator) -> Tree:
    d = x.shape[1]
    mtry = d if cfg.feature_frac >= 1.0 else max(1, int(d * cfg.feature_frac))
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def build(rows: np.ndarray) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        ys = y[rows]
        if rows.size < 2 * cfg.min_leaf or np.all(ys == ys[0]):
            value[node] = float(ys.mean())
            return node
        feats = (np.arange(d) if mtry == d
                 else np.sort(rng.choice(d, size=mtry, replace=False)))
        split = _ref_best_split(x[rows], ys, feats, cfg.min_leaf)
        if split is None:
            value[node] = float(ys.mean())
            return node
        f, t = split
        mask = x[rows, f] <= t
        feature[node] = f
        threshold[node] = t
        left[node] = build(rows[mask])
        right[node] = build(rows[~mask])
        return node

    build(np.arange(x.shape[0]))
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value),
    )


def _ref_fit_one_tree(x: np.ndarray, y: np.ndarray, cfg: ForestConfig,
                      seed: int, index: int) -> Tree:
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    if cfg.bootstrap:
        rows = rng.integers(0, x.shape[0], size=x.shape[0])
        return _ref_grow_tree(x[rows], y[rows], cfg, rng)
    return _ref_grow_tree(x, y, cfg, rng)


_TIE_VALUES = st.sampled_from([0.0, 0.25, 1.0, -3.0])


@st.composite
def _forest_case(draw):
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, 6))
    cell = _TIE_VALUES | st.floats(-5, 5, allow_nan=False, width=32)
    x = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):             # a constant column
        x[:, draw(st.integers(0, d - 1))] = 0.5
    for _ in range(draw(st.integers(0, n // 2))):   # duplicated rows
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x[b], y[b] = x[a], y[a]
    cfg = ForestConfig(n_trees=7, min_leaf=draw(st.integers(1, 3)),
                       feature_frac=draw(st.sampled_from([1.0, 1 / 3])),
                       bootstrap=draw(st.booleans()))
    return x, y, cfg, draw(st.integers(0, 2**31)), draw(st.sampled_from([1, 2, 3]))


@settings(max_examples=60)
@given(_forest_case())
def test_forest_equals_reference_builder(case):
    x, y, cfg, seed, threads = case
    model = train("random_forest", x, y, forest=cfg, seed=seed, threads=threads)
    assert len(model.trees) == cfg.n_trees
    for t, got in enumerate(model.trees):
        want = _ref_fit_one_tree(x, y, cfg, seed, t)
        for col in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and np.array_equal(a, b), (t, col)


class TestTrainValidation:
    def test_too_few_models(self):
        with pytest.raises(TooFewModels):
            train("linear", np.zeros((1, 2)), [0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            train("linear", np.zeros((3, 2)), [0.5, 0.5])

    def test_performance_range_checked(self):
        from disco.errors import InvariantViolation
        with pytest.raises(InvariantViolation):
            train("linear", np.zeros((2, 1)), [0.5, 1.5])

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfig):
            train("neural", np.zeros((2, 1)), [0.5, 0.5])

    def test_empty_model_predict(self):
        with pytest.raises(EmptyModel):
            predict(PredictorModel(kind="knn"), np.zeros(2))


class TestWeightedSum:
    def test_uniform_weights(self):
        s = AnchorSubset(indices=np.array([0, 1]), method="kmedoids_conf", seed=0,
                         weights=np.array([0.5, 0.5]))
        assert predict_weighted_sum(s, [1, 0]) == 0.5

    def test_skewed_weights(self):
        s = AnchorSubset(indices=np.array([0, 1]), method="kmedoids_conf", seed=0,
                         weights=np.array([0.9, 0.1]))
        assert abs(predict_weighted_sum(s, [1, 0]) - 0.9) < 1e-15

    def test_missing_weights(self):
        s = AnchorSubset(indices=np.array([0, 1]), method="random", seed=0)
        with pytest.raises(MissingWeights):
            predict_weighted_sum(s, [1, 0])

    def test_cluster_constant_correctness_recovers_accuracy(self, rng, tmp_path):
        # two tight clusters; correctness constant within each cluster
        n, c = 16, 2
        labels = np.zeros(n, dtype=np.int64)
        rows = np.zeros((n, c), dtype=np.float32)
        rows[:4] = [0.9, 0.1]    # cluster A: correct
        rows[4:] = [0.2, 0.8]    # cluster B: wrong
        man, files = saved_population(make_manifest(labels, c, ["m"]),
                                      [rows], tmp_path)
        t = load_tensor(man, "m")
        emb = build_embeddings(files, "conf")
        subset = select_kmedoids(emb, 2, seed=0)
        bits = correctness(t, man)[subset.indices]
        ws = predict_weighted_sum(subset, bits)
        assert ws == accuracy(correctness(t, man))


class TestSerialization:
    def test_knn_round_trip_bit_exact(self, tmp_path, rng):
        x = rng.standard_normal((10, 4))
        y = rng.random(10)
        proj = pca_fit(rng.standard_normal((10, 6)), 4)
        model = train("knn", x, y, k_neighbors=3, projection=proj)
        path = tmp_path / "model.dpak"
        save_predictor(model, path)
        loaded = load_predictor(path)
        assert np.array_equal(loaded.knn_vectors, model.knn_vectors)
        assert np.array_equal(loaded.projection.mean, proj.mean)
        assert np.array_equal(loaded.projection.components, proj.components)
        assert np.array_equal(loaded.projection.explained_variance,
                              proj.explained_variance)
        q = rng.standard_normal(6)
        assert predict(loaded, q) == predict(model, q)

    def test_linear_round_trip(self, tmp_path, rng):
        x = rng.standard_normal((8, 3))
        y = rng.random(8)
        model = train("linear", x, y)
        path = tmp_path / "model.dpak"
        save_predictor(model, path)
        loaded = load_predictor(path)
        assert np.array_equal(loaded.linear_weights, model.linear_weights)
        assert loaded.linear_intercept == model.linear_intercept

    def test_forest_round_trip_bit_exact(self, tmp_path, rng):
        x = rng.standard_normal((14, 5))
        y = rng.random(14)
        model = train("random_forest", x, y, forest=ForestConfig(n_trees=7), seed=9)
        path = tmp_path / "model.dpak"
        save_predictor(model, path, provenance={"seed": 9})
        loaded = load_predictor(path)
        assert len(loaded.trees) == 7
        for _ in range(10):
            q = rng.standard_normal(5)
            assert predict(loaded, q) == predict(model, q)
        # serialization is canonical: rewriting gives identical bytes
        save_predictor(loaded, tmp_path / "again.dpak", provenance={"seed": 9})
        assert (tmp_path / "again.dpak").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("corrupt", [
        "node_id", "offsets_flat", "offsets_short", "child_backward",
        "child_past_tree", "leaf_child", "feature_range", "feature_fraction", "nan",
    ])
    def test_corrupt_forest_table_rejected(self, tmp_path, rng, corrupt):
        from disco.dten import read_bundle, write_bundle
        from disco.errors import SchemaError
        proj = pca_fit(rng.standard_normal((16, 8)), 4)
        x = rng.standard_normal((16, 4))
        model = train("random_forest", x, rng.random(16),
                      forest=ForestConfig(n_trees=3), projection=proj)
        path = tmp_path / "model.dpak"
        save_predictor(model, path)
        header, arrays = read_bundle(path)
        table, offsets = arrays["forest_nodes"], header["tree_offsets"]
        inner = int(np.flatnonzero(table[:, 1] >= 0)[-1])
        leaf = int(np.flatnonzero(table[:, 1] == -1)[0])
        if corrupt == "node_id":
            table[offsets[1], 0] = 1
        elif corrupt == "offsets_flat":
            header["tree_offsets"] = [0, 0] + offsets[1:]
        elif corrupt == "offsets_short":
            header["tree_offsets"] = offsets[:-1]
        elif corrupt == "child_backward":
            table[inner, 4] = table[inner, 0]
        elif corrupt == "child_past_tree":
            table[inner, 3] = 10_000
        elif corrupt == "leaf_child":
            table[leaf, 3] = table[leaf, 0] + 1
        elif corrupt == "feature_range":
            table[inner, 1] = proj.d
        elif corrupt == "feature_fraction":
            table[inner, 1] = 0.5
        else:
            table[inner, 2] = np.nan
        write_bundle(path, header, arrays)
        with pytest.raises(SchemaError):
            load_predictor(path)

    @pytest.mark.parametrize("kind, corrupt", [
        ("knn", lambda h, a: h.update(config={})),
        ("knn", lambda h, a: h.update(config=3)),
        ("knn", lambda h, a: h["config"].update(k_neighbors="3")),
        ("knn", lambda h, a: h["config"].update(k_neighbors=True)),
        ("knn", lambda h, a: h["config"].update(k_neighbors=0)),
        ("knn", lambda h, a: h["config"].update(k_neighbors=11)),
        ("knn", lambda h, a: a.pop("knn_vectors")),
        ("knn", lambda h, a: a.update(knn_vectors=a["knn_vectors"][:, :3])),
        ("knn", lambda h, a: a.update(knn_performances=a["knn_performances"][:, :9])),
        ("knn", lambda h, a: a.pop("knn_performances")),
        ("knn", lambda h, a: a["knn_vectors"].__setitem__((0, 0), np.inf)),
        ("knn", lambda h, a: a.pop("pca_mean")),
        ("knn", lambda h, a: a.update(pca_mean=a["pca_mean"][:, :5])),
        ("knn", lambda h, a: a.update(pca_variance=a["pca_variance"][:, :3])),
        ("knn", lambda h, a: a.update(pca_components=a["pca_components"][:0])),
        ("linear", lambda h, a: a.pop("linear_weights")),
        ("linear", lambda h, a: a.pop("linear_intercept")),
        ("linear", lambda h, a: a.update(linear_intercept=np.zeros((0, 1)))),
        ("linear", lambda h, a: a.update(linear_intercept=np.zeros((1, 2)))),
        ("linear", lambda h, a: a.update(linear_weights=a["linear_weights"][:, :3])),
        ("linear", lambda h, a: a["linear_weights"].__setitem__((0, 1), np.nan)),
        ("random_forest", lambda h, a: h.pop("config")),
        *(pytest.param("random_forest", corrupt, id=f"random_forest-config-{name}")
          for name, corrupt in [
              ("types", lambda h, a: h.update(config={
                  "n_trees": "x", "min_leaf": None, "feature_frac": "nan",
                  "bootstrap": 3})),
              ("n_trees-999", lambda h, a: h["config"].update(n_trees=999)),
              ("n_trees-float", lambda h, a: h["config"].update(n_trees=2.0)),
              ("min_leaf-0", lambda h, a: h["config"].update(min_leaf=0)),
              ("min_leaf-bool", lambda h, a: h["config"].update(min_leaf=True)),
              ("feature_frac-bool", lambda h, a: h["config"].update(feature_frac=True)),
              ("feature_frac-0", lambda h, a: h["config"].update(feature_frac=0)),
              ("feature_frac-1.5", lambda h, a: h["config"].update(feature_frac=1.5)),
              ("feature_frac-nan",
               lambda h, a: h["config"].update(feature_frac=float("nan"))),
              ("bootstrap-int", lambda h, a: h["config"].update(bootstrap=1)),
              ("bootstrap-missing", lambda h, a: h["config"].pop("bootstrap")),
              ("extra-key", lambda h, a: h["config"].update(depth=3)),
          ]),
    ])
    def test_malformed_bundle_rejected(self, tmp_path, rng, kind, corrupt):
        from disco.dten import read_bundle, write_bundle
        from disco.errors import SchemaError
        proj = pca_fit(rng.standard_normal((10, 6)), 4)
        model = train(kind, rng.standard_normal((10, 4)), rng.random(10),
                      k_neighbors=3, forest=ForestConfig(n_trees=2), projection=proj)
        path = tmp_path / "model.dpak"
        save_predictor(model, path)
        header, arrays = read_bundle(path)
        corrupt(header, arrays)
        write_bundle(path, header, arrays)
        with pytest.raises(SchemaError):
            load_predictor(path)


class TestForestWalk:
    def test_single_leaf(self, tmp_path):
        t = Tree(feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                 left=np.array([-1], dtype=np.int32),
                 right=np.array([-1], dtype=np.int32), value=np.array([0.42]))
        save_predictor(PredictorModel(kind="random_forest", trees=[t]),
                       tmp_path / "leaf.dpak")
        assert predict(load_predictor(tmp_path / "leaf.dpak"), np.zeros(3)) == 0.42

    def test_short_feature_vector(self, rng):
        x = rng.standard_normal((12, 4))
        model = train("random_forest", x, rng.random(12), forest=ForestConfig(n_trees=3))
        with pytest.raises(DimensionMismatch):
            predict(model, np.zeros(max(t.feature.max() for t in model.trees)))


@pytest.mark.parametrize("kind", ["knn", "linear", "projection"])
def test_non_finite_prediction_raises(rng, kind):
    x = rng.standard_normal((6, 3))
    y = rng.random(6)
    z = np.full(3, 10.0)
    if kind == "knn":
        model = train("knn", x, y, k_neighbors=2)
        model.knn_vectors[0, 0] = 1e300         # its squared distance overflows
    elif kind == "linear":
        model = train("linear", x, y)
        model.linear_weights[:] = 1e308
    else:
        projection = pca_fit(x, 2)
        model = train("knn", pca_transform(projection, x), y, projection=projection)
        model.projection.components[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="not finite"):
            predict(model, z)


def test_predict_dimension_mismatch(rng):
    x = rng.standard_normal((5, 3))
    y = rng.random(5)
    model = train("knn", x, y, k_neighbors=2)
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros(7))
