from __future__ import annotations

import datetime as dt
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disco import dten
from disco.errors import EmptySide, LengthMismatch, MissingWeights, ZeroVariance
from disco.harness import (
    ChronologicalSplit,
    ModelSplit,
    PredictorConfig,
    SharedSources,
    fit_predictor,
    UniformSplit,
    mae,
    median_date_cutoff,
    midranks,
    pearson,
    run_pipeline,
    save_report,
    select_anchors,
    spearman,
    split_models,
    sweep_budgets,
    write_sweep_csv,
)
from disco.files import TensorFiles
from disco.predictors import ForestConfig, PredictorModel
from disco.selection import METHODS, AnchorSubset, subset_to_obj
from disco.synth import SynthConfig, generate_population

from conftest import make_manifest, saved_population

POPULATION = SynthConfig(m_models=14, n_samples=160, c_classes=3, ability_dim=2,
                         seed=5, noise_temperature=0.8)


@pytest.fixture(scope="module")
def population_manifest(tmp_path_factory):
    """The population's manifest, read back from the files it was written to."""
    manifest, _ = saved_population(*generate_population(POPULATION),
                                   tmp_path_factory.mktemp("population"))
    return manifest


@pytest.fixture
def population(population_manifest):
    """The population's manifest and fresh ``TensorFiles`` over all of its
    models."""
    return population_manifest, TensorFiles(population_manifest,
                                            population_manifest.model_ids())


class TestSplits:
    def _manifest(self, dates, accs=None):
        n = len(dates)
        return make_manifest([0] * 3, 2, [f"m{i}" for i in range(n)],
                             accuracies=accs or [0.5] * n, dates=dates)

    def test_all_before_cutoff_is_empty_side(self):
        man = self._manifest([dt.date(2020, 1, 1), dt.date(2021, 1, 1)])
        with pytest.raises(EmptySide):
            split_models(man, ChronologicalSplit(dt.date(2022, 1, 1)))

    def test_uniform_ratio_arithmetic(self):
        man = self._manifest([dt.date(2020, 1, 1)] * 40)
        split = split_models(man, UniformSplit(0.9, seed=1))
        assert len(split.source_ids) == 36
        assert len(split.target_ids) == 4

    def test_chronological_matches_date_oracle(self, rng):
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=int(d))
                 for d in rng.integers(0, 2000, size=25)]
        man = self._manifest(dates)
        cutoff = dt.date(2023, 1, 1)
        split = split_models(man, ChronologicalSplit(cutoff))
        for i, meta in enumerate(man.models):
            expected_source = meta.release_date < cutoff
            assert (meta.model_id in split.source_ids) == expected_source
            assert (meta.model_id in split.target_ids) == (not expected_source)

    def test_covers_only_models_with_accuracy(self):
        man = self._manifest([dt.date(2020, 1, 1), dt.date(2024, 1, 1),
                              dt.date(2024, 6, 1)], accs=[0.5, None, 0.7])
        split = split_models(man, ChronologicalSplit(dt.date(2022, 1, 1)))
        assert split.source_ids == ["m0"]
        assert split.target_ids == ["m2"]
        assert set(split.source_ids).isdisjoint(split.target_ids)

    def test_median_cutoff_halves_population(self, population):
        manifest, _ = population
        cutoff = median_date_cutoff(manifest)
        split = split_models(manifest, ChronologicalSplit(cutoff))
        m = len(manifest.models)
        assert abs(len(split.source_ids) - m / 2) <= 1


class TestMae:
    def test_identical(self):
        assert mae([0.1, 0.9], [0.1, 0.9]) == 0.0

    def test_percentage_points(self):
        assert abs(mae([0.5], [0.4]) - 10.0) < 1e-12

    def test_matches_summation_oracle(self, rng):
        t, p = rng.random(100), rng.random(100)
        total = 0.0
        for a, b in zip(t, p):
            total += abs(a - b)
        assert abs(mae(t, p) - 100 * total / 100) < 1e-9

    def test_symmetry_and_scale(self, rng):
        t, p = rng.random(30), rng.random(30)
        assert mae(t, p) == mae(p, t)
        assert abs(mae(3 * t, 3 * p) - 3 * mae(t, p)) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mae([0.1], [0.2, 0.3])


def midranks_oracle(values):
    # O(n^2) counting definition: 1 + #smaller + #ties/2
    values = list(values)
    out = []
    for x in values:
        smaller = sum(1 for y in values if y < x)
        ties = sum(1 for y in values if y == x) - 1
        out.append(1.0 + smaller + ties / 2.0)
    return np.asarray(out)


def midranks_loop_reference(values):
    """Mid-ranks from a stable argsort, found one tie group at a time."""
    a = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=np.float64)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@settings(max_examples=500)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf])
                | st.floats(allow_nan=True), max_size=29))
def test_midranks_equal_loop_reference(values):
    # ties, NaN (each its own group) and -0.0 (tied with 0.0), bit for bit
    assert midranks(values).tobytes() == midranks_loop_reference(values).tobytes()


class TestSpearman:
    def test_monotone_transform_invariance(self, rng):
        t = rng.random(40)
        assert abs(spearman(t, np.exp(t) + 5) - 1.0) < 1e-12

    def test_reversed(self):
        t = np.arange(10.0)
        assert abs(spearman(t, -t) + 1.0) < 1e-12

    def test_ties_match_counting_oracle(self, rng):
        for _ in range(50):
            t = rng.integers(0, 5, size=20).astype(float)
            p = rng.integers(0, 5, size=20).astype(float)
            if np.all(t == t[0]) or np.all(p == p[0]):
                continue
            assert np.abs(midranks(t) - midranks_oracle(t)).max() < 1e-12
            expect = pearson(midranks_oracle(t), midranks_oracle(p))
            assert abs(spearman(t, p) - expect) < 1e-12

    def test_zero_variance_is_error(self):
        with pytest.raises(ZeroVariance):
            spearman([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])


class TestPearson:
    def test_affine(self, rng):
        t = rng.random(25)
        assert abs(pearson(t, 2 * t + 1) - 1.0) < 1e-12

    def test_negation(self, rng):
        t = rng.random(25)
        assert abs(pearson(t, -t) + 1.0) < 1e-12

    def test_matches_covariance_formula_oracle(self, rng):
        t, p = rng.random(60), rng.random(60)
        cov = np.mean((t - t.mean()) * (p - p.mean()))
        expect = cov / (t.std() * p.std())
        assert abs(pearson(t, p) - expect) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([0.5, 0.5], [0.1, 0.2])

    @pytest.mark.parametrize("value", [0.1, 0.7, 0.93])
    def test_repeated_value_is_constant(self, value):
        # centred, these repeated values do not all come out exactly zero
        x = np.arange(7.0)
        for args in ((x, [value] * 7), ([value] * 7, x)):
            with pytest.raises(ZeroVariance):
                pearson(*args)


class TestRunPipeline:
    def test_self_prediction_is_exact(self, population):
        manifest, files = population
        ids = manifest.model_ids()
        split = ModelSplit(source_ids=ids, target_ids=ids)
        report = run_pipeline(files, split, "random",
                              PredictorConfig(kind="knn", k_neighbors=1),
                              k=20, seed=0)
        assert report.mae_pp == 0.0
        assert report.spearman == 1.0

    def test_full_budget_direct_eval_exact(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "random",
                              PredictorConfig(kind="direct"),
                              k=manifest.num_samples, seed=0)
        assert report.mae_pp == 0.0

    def test_sources_read_before_targets(self, population, monkeypatch):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        # every read of rows, in order: the models of each one
        reads = []
        read = TensorFiles._read

        def recording_read(self, model_ids, idx, out):
            reads.extend(model_ids)
            return read(self, model_ids, idx, out)

        monkeypatch.setattr(TensorFiles, "_read", recording_read)
        run_pipeline(files, split, "topk_pds",
                     PredictorConfig(kind="knn"), k=10, seed=0)
        first_target = min(reads.index(t) for t in split.target_ids)
        last_source = max(reads.index(s) for s in split.source_ids)
        assert last_source < first_target

    @pytest.mark.parametrize("kind", ["knn", "direct"])
    def test_each_side_reads_its_anchor_rows_once(self, population, monkeypatch, kind):
        # a fitted predictor reads the sorted sources' rows, then the
        # targets'; a readout reads the targets' alone; each read is of K rows
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        reads = []
        anchor_rows = TensorFiles.anchor_rows

        def recording_read(self, model_ids, idx):
            reads.append((list(model_ids), len(idx)))
            return anchor_rows(self, model_ids, idx)

        monkeypatch.setattr(TensorFiles, "anchor_rows", recording_read)
        report = run_pipeline(files, split, "topk_pds",
                              PredictorConfig(kind=kind), k=10, seed=0)
        sides = [sorted(split.source_ids)] if kind == "knn" else []
        assert reads == [(ids, 10) for ids in sides + [split.target_ids]]
        assert report.k == 10

    def test_pairs_follow_target_order(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        cfg = ("topk_pds", PredictorConfig(kind="knn"))
        first = run_pipeline(files, split, *cfg, k=10, seed=0)
        estimates = {mid: pred for mid, _, pred in first.pairs}
        for targets in (split.target_ids[:-2], split.target_ids[::-1]):
            other = ModelSplit(split.source_ids, targets)
            got = run_pipeline(files, other, *cfg, k=10, seed=0)
            assert [p[0] for p in got.pairs] == targets
            assert all(pred == estimates[mid] for mid, _, pred in got.pairs)

    def test_target_tensors_cannot_leak_into_selection(self, tmp_path):
        manifest, files = saved_population(*generate_population(POPULATION), tmp_path)
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        cfg = ("topk_pds",
               PredictorConfig(kind="random_forest",
                               forest=ForestConfig(n_trees=10)))
        r1 = run_pipeline(files, split, *cfg, k=12, seed=1)

        # corrupt one target model's tensor file; all other targets'
        # predictions must be unchanged (selection, PCA, and training saw
        # sources only)
        victim = split.target_ids[0]
        rng = np.random.default_rng(99)
        raw = rng.random((manifest.num_samples, manifest.num_classes)) + 1e-6
        raw /= raw.sum(axis=1, keepdims=True)
        dten.write_dten(tmp_path / manifest.model(victim).tensor_path,
                        raw.astype(np.float32))
        r2 = run_pipeline(TensorFiles(manifest, manifest.model_ids()), split,
                          *cfg, k=12, seed=1)
        assert r1.pairs != r2.pairs
        for (m1, _, p1), (m2, _, p2) in zip(r1.pairs, r2.pairs):
            assert m1 == m2
            if m1 != victim:
                assert p1 == p2

    def test_deterministic(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        args = (files, split, "topk_jsd",
                PredictorConfig(kind="random_forest", forest=ForestConfig(n_trees=15)))
        r1 = run_pipeline(*args, k=8, seed=4)
        r2 = run_pipeline(*args, k=8, seed=4)
        assert r1.pairs == r2.pairs

    def test_weighted_sum_route(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "kmedoids_corr",
                              PredictorConfig(kind="weighted_sum"), k=6, seed=0)
        assert 0 <= report.mae_pp <= 100

    def test_weighted_sum_needs_weights(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        with pytest.raises(MissingWeights):
            run_pipeline(files, split, "random",
                         PredictorConfig(kind="weighted_sum"), k=6, seed=0)

    @pytest.mark.parametrize("kind, method", [("direct", "random"),
                                              ("weighted_sum", "kmedoids_corr")])
    def test_readout_fits_to_a_header_only_model(self, population, monkeypatch,
                                                 kind, method):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        subset = select_anchors(SharedSources(files, split.source_ids,
                                              methods=(method,)), method, 6, 0)
        opened = []
        monkeypatch.setattr(dten, "open_dten", opened.append)
        model = fit_predictor(TensorFiles(manifest, split.source_ids), subset,
                              PredictorConfig(kind=kind), seed=0)
        assert model == PredictorModel(kind=kind)
        assert opened == []

    def test_weighted_sum_fit_without_weights_reads_no_file(self, population,
                                                            monkeypatch):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        subset = select_anchors(SharedSources(files, split.source_ids,
                                              methods=("topk_pds",)), "topk_pds", 6, 0)
        opened = []
        monkeypatch.setattr(dten, "open_dten", opened.append)
        with pytest.raises(MissingWeights):
            fit_predictor(TensorFiles(manifest, split.source_ids), subset,
                          PredictorConfig(kind="weighted_sum"), seed=0)
        assert opened == []

    @pytest.mark.parametrize("method", METHODS)
    def test_each_selector_names_itself_and_its_criterion(self, population, method):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        subset = select_anchors(SharedSources(files, split.source_ids,
                                              methods=(method,)), method, 6, 0)
        assert subset.method == method
        want = {"topk_pds": "pds_env", "stratified_topk": "pds_env",
                "topk_jsd": "jsd_bits"}.get(method)
        assert subset_to_obj(subset)["criterion"] == want

    def test_report_serialization(self, population, tmp_path):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "random",
                              PredictorConfig(kind="direct"), k=10, seed=0)
        path = tmp_path / "report.json"
        save_report(report, path, provenance={"seed": 0})
        obj = json.loads(path.read_text())
        assert obj["mae_pp"] == report.mae_pp
        assert obj["selection"] == "random"
        assert len(obj["pairs"]) == len(split.target_ids)


@pytest.fixture
def population_files(population_manifest):
    """The population's manifest, and a factory of fresh ``TensorFiles``
    over all of its models."""
    manifest = population_manifest
    return manifest, lambda: TensorFiles(manifest, manifest.model_ids())


# Every selector and readout once, and each seed-free pipeline repeated
# over seeds (a forest reads the seed, so it is not).
SWEEP_CONFIGS = [("random", "linear"), ("topk_pds", "knn"), ("kmedoids_conf", "knn"),
                 ("topk_jsd", "linear"), ("kmedoids_corr", "weighted_sum"),
                 ("kmedoids_conf", "weighted_sum"), ("stratified_topk", "knn"),
                 ("best_for_validation", "direct")]
REPEATING_CONFIGS = [("topk_pds", "knn"), ("topk_jsd", "linear"), ("stratified_topk", "knn"),
                     ("random", "linear"), ("kmedoids_conf", "weighted_sum"),
                     ("topk_pds", "random_forest")]


def assert_sweep_equals_separate_pipelines(manifest, source, configs, seeds, tmp_path,
                                           budgets=(12, 40)):
    """A sweep over ``source()`` gives the bytes of one ``run_pipeline`` per
    pipeline, each on a fresh ``source()``, in the order of ``budgets``."""
    split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
    configs = [(sel, PredictorConfig(kind=pred, forest=ForestConfig(n_trees=4)))
               for sel, pred in configs]
    reports = sweep_budgets(source(), split, configs, budgets, seeds)
    singles = [run_pipeline(source(), split, sel, pred, k, seed)
               for sel, pred in configs for k in budgets for seed in seeds]
    assert ([json.dumps(asdict(r)) for r in reports]
            == [json.dumps(asdict(r)) for r in singles])
    write_sweep_csv(reports, tmp_path / "sweep.csv")
    write_sweep_csv(singles, tmp_path / "singles.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "singles.csv").read_bytes()


class TestSweep:
    def test_single_cell_equals_run_pipeline(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        cfg = ("random", PredictorConfig(kind="direct"))
        reports = sweep_budgets(files, split, [cfg], [10], [3])
        single = run_pipeline(files, split, *cfg, k=10, seed=3)
        assert len(reports) == 1
        assert reports[0].pairs == single.pairs

    def test_sweep_equals_separate_pipelines(self, population, tmp_path):
        # one sweep, or one run_pipeline per pipeline, all over one
        # TensorFiles: every selector and readout gives the same bytes
        # either way
        manifest, files = population
        assert_sweep_equals_separate_pipelines(manifest, lambda: files, SWEEP_CONFIGS,
                                               [0, 3], tmp_path)

    def test_repeated_pipelines_equal_separate_pipelines(self, population, tmp_path):
        # seed-free selectors repeat their pipeline for every seed after the
        # first; the sweep copies those reports, a lone run computes each
        manifest, files = population
        assert_sweep_equals_separate_pipelines(manifest, lambda: files,
                                               REPEATING_CONFIGS, [0, 1, 2], tmp_path)

    @pytest.mark.parametrize("configs, seeds", [(SWEEP_CONFIGS, [0, 3]),
                                                (REPEATING_CONFIGS, [0, 1, 2])],
                             ids=["every-selector", "repeating"])
    def test_sweep_on_files_equals_separate_pipelines(self, population_files, configs,
                                                      seeds, tmp_path):
        # the sweep reads each seed's anchor rows at once, a lone run its own
        manifest, source = population_files
        assert_sweep_equals_separate_pipelines(manifest, source, configs, seeds, tmp_path)

    def test_each_distinct_pipeline_fits_once(self, population, monkeypatch):
        import collections

        from disco import harness
        fits = collections.Counter()
        # the subset of the last signature built: the training subset, when
        # a model is trained
        last = {}
        build_signature, train = harness.build_signature, harness.train

        def recording_signature(rows, subset, *args, **kwargs):
            last["subset"] = subset
            return build_signature(rows, subset, *args, **kwargs)

        def counting_train(kind, *args, **kwargs):
            fits[last["subset"].method, kind, last["subset"].k] += 1
            return train(kind, *args, **kwargs)

        monkeypatch.setattr(harness, "build_signature", recording_signature)
        monkeypatch.setattr(harness, "train", counting_train)
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        # seed-free anchors and training fit once per (config, K); the random
        # selector and forest training read the seed, so fit once per seed
        fits_per_k = {("topk_pds", "knn"): 1, ("topk_jsd", "linear"): 1,
                      ("random", "linear"): 3, ("topk_pds", "random_forest"): 3}
        forest = ForestConfig(n_trees=3)
        configs = [(sel, PredictorConfig(kind=pred, forest=forest))
                   for sel, pred in fits_per_k]
        budgets, seeds = [12, 40], [0, 1, 2]
        reports = sweep_budgets(files, split, configs, budgets, seeds)
        assert len(reports) == 4 * 2 * 3
        assert fits == {(sel, pred, k): n for (sel, pred), n in fits_per_k.items()
                        for k in budgets}

    def test_sweep_reads_anchor_rows_once_per_pipeline(self, population_files,
                                                       monkeypatch):
        # each pipeline run reads its sources' rows (none for a readout),
        # then its targets', at its own K; a pipeline already run reads none
        from disco import files
        reads = []
        anchor_rows = files.TensorFiles.anchor_rows

        def counting_read(self, model_ids, idx):
            reads.append((len(model_ids), len(idx)))
            return anchor_rows(self, model_ids, idx)

        monkeypatch.setattr(files.TensorFiles, "anchor_rows", counting_read)
        manifest, source = population_files
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        configs = [("random", PredictorConfig(kind="linear")),
                   ("topk_pds", PredictorConfig(kind="knn")),
                   ("random", PredictorConfig(kind="direct"))]
        reports = sweep_budgets(source(), split, configs, [12, 40], [0, 1])
        assert len(reports) == 3 * 2 * 2
        sources, targets = len(split.source_ids), len(split.target_ids)
        # random: seeds 0 and 1; topk_pds: seed 0 only, seed 1 repeats it;
        # the readout reads the targets alone
        fitted = {k: [(sources, k), (targets, k)] for k in (12, 40)}
        assert reads == (fitted[12] * 2 + fitted[40] * 2 + fitted[12] + fitted[40]
                         + [(targets, 12)] * 2 + [(targets, 40)] * 2)

    def test_sweep_selects_each_subset_once(self, population, monkeypatch):
        from disco import harness
        picks = []
        select_kmedoids = harness.select_kmedoids

        def counting_select(embeddings, k, seed, **kwargs):
            picks.append((k, seed))
            return select_kmedoids(embeddings, k, seed, **kwargs)

        monkeypatch.setattr(harness, "select_kmedoids", counting_select)
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        configs = [("kmedoids_conf", PredictorConfig(kind="knn"))]
        reports = sweep_budgets(files, split, configs, [12, 40], [0, 1])
        assert len(reports) == 4
        assert sorted(picks) == [(12, 0), (12, 1), (40, 0), (40, 1)]

    def test_cardinality(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        configs = [("random", PredictorConfig(kind="direct")),
                   ("topk_pds", PredictorConfig(kind="knn"))]
        reports = sweep_budgets(files, split, configs, [20, 40], [0, 1, 2])
        assert len(reports) == 2 * 2 * 3

    def test_descending_budgets_give_separate_pipelines_in_that_order(self, population,
                                                                     tmp_path):
        # each pipeline reads its rows at its own K, so budgets need no order
        manifest, files = population
        assert_sweep_equals_separate_pipelines(manifest, lambda: files, SWEEP_CONFIGS,
                                               [0, 3], tmp_path, budgets=[40, 12])

    def test_direct_eval_error_shrinks_with_budget(self, tmp_path):
        # sampling error at K=100 should beat K=10 on average over seeds
        cfg = SynthConfig(m_models=24, n_samples=400, c_classes=3, ability_dim=2,
                          seed=42, noise_temperature=0.8)
        manifest, files = saved_population(*generate_population(cfg), tmp_path)
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        sel = "random"
        pred = PredictorConfig(kind="direct")
        maes = {10: [], 100: []}
        for seed in range(20):
            for k in (10, 100):
                r = run_pipeline(files, split, sel, pred, k, seed)
                maes[k].append(r.mae_pp)
        assert np.mean(maes[100]) <= np.mean(maes[10])

    def test_csv_export(self, population, tmp_path):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        cfg = ("random", PredictorConfig(kind="direct"))
        reports = sweep_budgets(files, split, [cfg], [25], [0, 1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,selection,predictor,k,seed,mae_pp,spearman,pearson"
        assert len(lines) == 3
        assert lines[1].startswith("random+direct,random,direct,25,0,")


class TestOtherPredictorRoutes:
    def test_linear_pipeline(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "topk_pds",
                              PredictorConfig(kind="linear"), k=10, seed=0)
        assert 0.0 <= report.mae_pp <= 100.0
        assert all(0.0 <= p <= 1.0 for _, _, p in report.pairs)

    def test_best_for_validation_pipeline(self, population):
        manifest, files = population
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "best_for_validation",
                              PredictorConfig(kind="knn"), k=10, seed=0)
        assert report.k == 10


def test_fit_predictor_peak_allocation_bounded(tmp_path):
    # 50 sources, 50 anchors of 100 classes: D = 5000.  One signature
    # matrix, centred in place, and the SVD's outputs; a list of the
    # signatures, their stack, a centred copy and pca_transform's two
    # copies read 4.99 x M*D*8 bytes.
    m, n, c, k = 50, 200, 100, 50
    rng = np.random.default_rng(0)
    ids = [f"m{i}" for i in range(m)]
    manifest = make_manifest(rng.integers(0, c, n), c, ids,
                             accuracies=rng.random(m).tolist())
    tensors = {}
    for mid in ids:
        raw = rng.random((n, c)) + 1e-3
        tensors[mid] = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
    subset = AnchorSubset(indices=np.sort(rng.choice(n, k, replace=False)),
                          method="random", seed=0)
    manifest, files = saved_population(manifest, tensors, tmp_path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = fit_predictor(files, subset, PredictorConfig(kind="knn"), seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert model.projection.d == m - 1
    assert peak <= 4.0 * m * k * c * 8


@pytest.mark.parametrize("kind", ["direct", "knn"])
def test_sweep_anchor_rows_bounded_by_largest_budget(tmp_path, kind):
    # each pipeline holds one side's rows at its own K, so smaller budgets
    # swept before the largest add nothing to the peak; reading every
    # budget's rows at once would hold their sum
    manifest, _ = saved_population(*generate_population(SynthConfig(
        m_models=40, n_samples=500, c_classes=100, ability_dim=2, seed=1)), tmp_path)
    split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
    config = [("random", PredictorConfig(kind=kind))]

    def peak(budgets):
        files = TensorFiles(manifest, manifest.model_ids())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep_budgets(files, split, config, budgets, [0])
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak([10, 40, 80]) <= 1.1 * peak([80])
