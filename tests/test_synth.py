from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from disco.errors import InvalidConfig
from disco.harness import spearman
from disco.scoring import score_dataset
from disco.store import accuracy, correctness, load_manifest, load_tensor, manifest_bytes
from disco.synth import (
    SynthConfig,
    assemble_tensors,
    generate_population,
    oracle_true_performance,
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
            assert t1[mid].values.tobytes() == t2[mid].values.tobytes()

    def test_saturation_when_all_p_above_half(self):
        # temperature -> 0 concentrates the distractor mass on one class;
        # with p_correct > 0.5 everywhere the true label always wins argmax
        rng = np.random.default_rng(0)
        p = 0.5 + 0.5 * rng.random((4, 30))
        labels = rng.integers(0, 4, 30)
        logits = rng.standard_normal((30, 3))
        tensors = assemble_tensors(labels, p, logits, 1e-9,
                                   [f"m{i}" for i in range(4)])
        from conftest import make_manifest
        man = make_manifest(labels, 4, [f"m{i}" for i in range(4)])
        for t in tensors.values():
            assert accuracy(correctness(t, man)) == 1.0

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
        base = tensors["m0"].values.tobytes()
        for mid in ids[1:]:
            assert tensors[mid].values.tobytes() == base
        from conftest import make_manifest, saved_population
        man, files = saved_population(make_manifest(labels, 3, ids), tensors, tmp_path)
        table = score_dataset(man, files)
        assert np.all(table.jsd_bits < 1e-12)

    def test_mean_p_correct_matches_formula_reevaluation(self):
        man, tensors, lat = generate_population(SMALL, return_latents=True)
        m, n = lat.p_correct.shape
        total = 0.0
        for j in range(m):
            for i in range(n):
                total += 1.0 / (1.0 + np.exp(lat.alpha[i] @ lat.theta[j] - lat.beta[i]))
        assert abs(lat.p_correct.mean() - total / (m * n)) < 1e-12

    def test_dates_follow_ability_norm_order(self):
        man, tensors, lat = generate_population(SMALL, return_latents=True)
        dates = np.array([m.release_date.toordinal() for m in man.models])
        order = np.argsort(lat.theta_norms, kind="stable")
        assert (np.diff(dates[order]) >= 0).all()
        assert man.models[int(order[0])].release_date >= SMALL.date_start
        assert man.models[int(order[-1])].release_date <= SMALL.date_end

    def test_sample_difficulty_heterogeneous(self):
        man, tensors = generate_population(SMALL)
        bits = np.stack([correctness(t, man) for t in tensors.values()])
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


class TestOracle:
    def test_matches_stored_accuracy_bit_for_bit(self):
        man, tensors = generate_population(SMALL)
        perf = oracle_true_performance(man, tensors)
        for meta in man.models:
            assert perf[meta.model_id] == meta.true_accuracy

    def test_hand_built_toy(self):
        from conftest import make_manifest, tensor_from_rows
        man = make_manifest([0, 1], 2, ["right", "wrong"])
        tensors = {
            "right": tensor_from_rows("right", [[1, 0], [0, 1]]),
            "wrong": tensor_from_rows("wrong", [[0, 1], [1, 0]]),
        }
        perf = oracle_true_performance(man, tensors)
        assert perf == {"right": 1.0, "wrong": 0.0}

    def test_matches_independent_argmax_loop(self):
        man, tensors = generate_population(SMALL)
        labels = np.asarray(man.labels)
        for mid, t in tensors.items():
            hits = 0
            for i in range(man.num_samples):
                row = t.values[i]
                best, best_c = -1.0, -1
                for c in range(man.num_classes):
                    if row[c] > best:
                        best, best_c = row[c], c
                hits += int(best_c == labels[i])
            assert oracle_true_performance(man, tensors)[mid] == hits / man.num_samples


class TestAbilityAccuracyLink:
    def test_norm_correlates_with_accuracy_over_seeds(self):
        # default-scale populations; the chronological ordering is only
        # meaningful if stronger-ability models really score higher
        for seed in range(10):
            cfg = SynthConfig(seed=seed)
            man, tensors, lat = generate_population(cfg, return_latents=True)
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
            assert disk.values.tobytes() == tensors[mid].values.tobytes()

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
