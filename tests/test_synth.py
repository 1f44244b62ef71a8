from __future__ import annotations

import datetime as dt
import os
import struct

import numpy as np
import pytest

from disco import store
from disco.errors import InvalidConfig
from disco.harness import spearman
from disco.scoring import score_dataset
from disco.store import accuracy, correctness, load_manifest, load_tensor, manifest_bytes
from disco.synth import (
    SynthConfig,
    _draw_latents,
    assemble_tensors,
    distractor_profile,
    generate_population,
    save_population,
    sigmoid,
)

SMALL = SynthConfig(m_models=6, n_samples=40, c_classes=3, ability_dim=2, seed=11,
                    noise_temperature=0.9)


class TestGenerate:
    def test_deterministic_byte_identical(self):
        man1, t1 = generate_population(SMALL)
        man2, t2 = generate_population(SMALL)
        assert manifest_bytes(man1) == manifest_bytes(man2)
        for mid in man1.model_ids():
            assert t1[mid].dtype == np.float32
            assert t1[mid].tobytes() == t2[mid].tobytes()

    def test_saturation_when_all_p_above_half(self):
        # temperature -> 0 concentrates the distractor mass on one class;
        # with p_correct > 0.5 everywhere the true label always wins argmax
        rng = np.random.default_rng(0)
        p = 0.5 + 0.5 * rng.random((4, 30))
        labels = rng.integers(0, 4, 30)
        logits = rng.standard_normal((30, 3))
        tensors = assemble_tensors(labels, p, logits, 1e-9,
                                   [f"m{i}" for i in range(4)])
        for t in tensors.values():
            assert accuracy(store._correct(t, labels)) == 1.0

    def test_zero_ability_gives_identical_tensors_and_zero_jsd(self, tmp_path):
        # equal abilities -> equal correctness probabilities -> because the
        # distractor profile is shared per sample, identical tensors
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(25)
        p_row = sigmoid(beta)  # theta = 0 for every model
        p = np.tile(p_row, (5, 1))
        labels = rng.integers(0, 3, 25)
        logits = rng.standard_normal((25, 2))
        ids = [f"m{i}" for i in range(5)]
        tensors = assemble_tensors(labels, p, logits, 0.8, ids)
        base = tensors["m0"].tobytes()
        for mid in ids[1:]:
            assert tensors[mid].tobytes() == base
        from conftest import make_manifest, saved_population
        man, files = saved_population(make_manifest(labels, 3, ids), tensors, tmp_path)
        table = score_dataset(man, files)
        assert np.all(table.jsd_bits < 1e-12)

    def test_mean_p_correct_matches_formula_reevaluation(self):
        lat = _draw_latents(SMALL)
        m, n = lat.p_correct.shape
        total = 0.0
        for j in range(m):
            for i in range(n):
                total += 1.0 / (1.0 + np.exp(lat.alpha[i] @ lat.theta[j] - lat.beta[i]))
        assert abs(lat.p_correct.mean() - total / (m * n)) < 1e-12

    def test_dates_follow_ability_norm_order(self):
        man, _ = generate_population(SMALL)
        lat = _draw_latents(SMALL)
        assert np.array_equal(lat.labels, man.labels)
        dates = np.array([m.release_date.toordinal() for m in man.models])
        order = np.argsort(lat.theta_norms, kind="stable")
        assert (np.diff(dates[order]) >= 0).all()
        assert man.models[int(order[0])].release_date >= SMALL.date_start
        assert man.models[int(order[-1])].release_date <= SMALL.date_end

    def test_sample_difficulty_heterogeneous(self):
        man, tensors = generate_population(SMALL)
        bits = np.stack([store._correct(t, man.labels) for t in tensors.values()])
        per_sample = bits.mean(axis=0)
        assert per_sample.var() > 0.0

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            generate_population(SynthConfig(m_models=2))
        with pytest.raises(InvalidConfig):
            generate_population(SynthConfig(c_classes=1))
        with pytest.raises(InvalidConfig):
            generate_population(SynthConfig(noise_temperature=0.0))
        with pytest.raises(InvalidConfig):
            generate_population(SynthConfig(date_start=dt.date(2025, 1, 1),
                                            date_end=dt.date(2024, 1, 1)))

    @pytest.mark.parametrize("sizes", [{"c_classes": 100_000_000, "n_samples": 10},
                                       {"ability_dim": 100_000_000}])
    def test_sizes_beyond_physical_memory_are_refused(self, sizes):
        with pytest.raises(InvalidConfig, match="bytes of memory"):
            SynthConfig(**sizes).validate()

    # the default config, and the benchmark's two 100-model populations
    @pytest.mark.parametrize("m, n, c", [(200, 2000, 4), (100, 5000, 100), (100, 1000, 100)])
    def test_default_and_benchmark_sizes_pass(self, m, n, c):
        SynthConfig(m_models=m, n_samples=n, c_classes=c).validate()

    def test_memory_bound_counts_the_arrays_held(self, monkeypatch):
        # float32 (M, N, C) rows, float64 (N, C), (M, N) and (N, dim) arrays
        config = SynthConfig(m_models=5, n_samples=7, c_classes=3, ability_dim=2)
        need = 4 * 5 * 7 * 3 + 8 * (7 * 3 + 5 * 7 + 7 * 2)
        host = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
        monkeypatch.setattr(os, "sysconf", host.__getitem__)
        config.validate()
        host["SC_PHYS_PAGES"] = need - 1
        with pytest.raises(InvalidConfig, match=f"at least {need} bytes"):
            config.validate()


class TestTrueAccuracy:
    def test_matches_stored_accuracy_bit_for_bit(self, tmp_path):
        # the accuracy a reader of the written files computes
        man, tensors = generate_population(SMALL)
        loaded = load_manifest(save_population(man, tensors, tmp_path))
        for meta in loaded.models:
            t = load_tensor(loaded, meta.model_id)
            assert accuracy(correctness(t, loaded)) == meta.true_accuracy

    def test_matches_independent_argmax_loop(self):
        man, tensors = generate_population(SMALL)
        labels = np.asarray(man.labels)
        for meta in man.models:
            t = tensors[meta.model_id]
            hits = 0
            for i in range(man.num_samples):
                row = t[i]
                best, best_c = -1.0, -1
                for c in range(man.num_classes):
                    if row[c] > best:
                        best, best_c = row[c], c
                hits += int(best_c == labels[i])
            assert meta.true_accuracy == hits / man.num_samples


class TestAbilityAccuracyLink:
    def test_norm_correlates_with_accuracy_over_seeds(self):
        # default-scale populations; the chronological ordering is only
        # meaningful if stronger-ability models really score higher
        for seed in range(10):
            cfg = SynthConfig(seed=seed)
            man, _ = generate_population(cfg)
            lat = _draw_latents(cfg)
            accs = np.array([m.true_accuracy for m in man.models])
            assert spearman(lat.theta_norms, accs) > 0.5


class TestSavePopulation:
    def test_directory_round_trip(self, tmp_path):
        man, tensors = generate_population(SMALL)
        path = save_population(man, tensors, tmp_path / "pop")
        loaded = load_manifest(path)
        loaded.validate()
        for mid in man.model_ids():
            disk = load_tensor(loaded, mid)
            assert disk.values.tobytes() == tensors[mid].tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        man, tensors = generate_population(SMALL)
        p1 = save_population(man, tensors, tmp_path / "a")
        man2, tensors2 = generate_population(SMALL)
        p2 = save_population(man2, tensors2, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        for meta in man.models:
            f1 = (tmp_path / "a" / meta.tensor_path).read_bytes()
            f2 = (tmp_path / "b" / meta.tensor_path).read_bytes()
            assert f1 == f2

    def test_rows_follow_the_model_formula(self, tmp_path):
        # each model puts p_correct on the label and spreads the rest over
        # the distractors by the sample's softmax profile; its float64 rows,
        # cast to float32 and ingested chunk by chunk, are what is returned
        # and written
        man, tensors = generate_population(SMALL)
        lat = _draw_latents(SMALL)
        weights = distractor_profile(lat.distractor_logits, SMALL.noise_temperature)
        save_population(man, tensors, tmp_path)
        n, c = man.num_samples, man.num_classes
        step = store._chunk_rows(c)
        for j, meta in enumerate(man.models):
            values = np.empty((n, c))
            for i in range(n):
                label = man.labels[i]
                p = lat.p_correct[j, i]
                values[i, label] = p
                values[i, [k for k in range(c) if k != label]] = (
                    (1.0 - p) * weights[i])
            rows = values.astype(np.float32)
            faults = store._RowFaults()
            for lo in range(0, n, step):
                store._ingest_rows(rows[lo:lo + step], lo, faults)
            assert not faults
            assert rows.tobytes() == tensors[meta.model_id].tobytes()
            head = struct.pack("<4sBBBBQQ", b"DTEN", 1, 0, 2, 0, n, c)
            assert head + rows.tobytes() == (tmp_path / meta.tensor_path).read_bytes()
