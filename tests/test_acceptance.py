"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The quantitative end-to-end criteria run on synthetic populations with
known ground truth; the identity and bound criteria run on randomized
distribution stacks at their stated tolerances.
"""

from __future__ import annotations

import itertools
import tempfile
import time

import numpy as np
import pytest

from disco.cli import main as cli_main
from disco.harness import (
    ChronologicalSplit,
    ModelSplit,
    PredictorConfig,
    median_date_cutoff,
    pearson,
    run_pipeline,
    spearman,
    split_models,
)
from disco.predictors import train
from disco.scoring import (
    balance_identity_check,
    check_sandwich,
    jsd,
    mutual_information_bruteforce,
    score_dataset,
)
from disco.selection import kmedoids_objective, select_kmedoids, select_topk
from disco.signatures import pca_fit, pca_transform
from disco.synth import SynthConfig, generate_population

from conftest import saved_population


def _gate(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def stacks_10k():
    rng = np.random.default_rng(20240817)
    stacks = []
    for _ in range(10000):
        m = int(rng.integers(2, 7))
        c = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            rows = rng.random((m, c)) + 1e-12
        else:
            logits = rng.standard_normal((m, c)) * rng.uniform(1.0, 10.0)
            rows = np.exp(logits - logits.max(axis=1, keepdims=True))
        stacks.append(rows / rows.sum(axis=1, keepdims=True))
    return stacks


def test_criterion_1_divergence_equals_mutual_information(stacks_10k):
    t0 = time.time()
    worst = 0.0
    for stack in stacks_10k:
        gap = abs(jsd(stack) - mutual_information_bruteforce(stack))
        worst = max(worst, gap)
        if worst >= 1e-9:
            break
    elapsed = time.time() - t0
    _gate(1, "MI identity on 10k stacks", worst < 1e-9 and elapsed < 10.0,
          f"(max gap {worst:.3e}, {elapsed:.2f}s)")


def test_criterion_2_sandwich_bounds(stacks_10k):
    bad = 0
    for stack in stacks_10k:
        report = check_sandwich(stack)
        if not (report.ok_pds and report.ok_tv and report.ok_spread):
            bad += 1
    _gate(2, "envelope bounds on 10k stacks", bad == 0, f"({bad} violations)")


def test_criterion_3_balance_identity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        a = rng.standard_normal(int(rng.integers(2, 64)))
        a -= a.mean()
        ok = ok and balance_identity_check(a)
    _gate(3, "balance of deviations on 1k vectors", ok)


DISCO_CFG = ("topk_pds", PredictorConfig(kind="random_forest"))
BASELINE_CFG = ("random", PredictorConfig(kind="direct"))


def _paired_run(seed: int, k: int) -> tuple[float, float, float, float]:
    with tempfile.TemporaryDirectory() as tmp:
        manifest, files = saved_population(*generate_population(SynthConfig(seed=seed)), tmp)
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        disco = run_pipeline(manifest, files, split, *DISCO_CFG, k=k, seed=seed)
        rand = run_pipeline(manifest, files, split, *BASELINE_CFG, k=k, seed=seed)
    return disco.mae_pp, disco.spearman, rand.mae_pp, rand.spearman


def test_criterion_4_end_to_end_beats_baseline():
    t0 = time.time()
    seeds = range(20)
    rows = [_paired_run(seed, k=50) for seed in seeds]
    elapsed = time.time() - t0
    d_mae = float(np.mean([r[0] for r in rows]))
    d_sp = float(np.mean([r[1] for r in rows]))
    r_mae = float(np.mean([r[2] for r in rows]))
    r_sp = float(np.mean([r[3] for r in rows]))
    wins = sum(r[0] < r[2] for r in rows)
    ok = (d_mae <= 0.7 * r_mae) and (d_sp >= r_sp + 0.03) \
        and (wins >= 0.9 * len(rows)) and (elapsed < 300.0)
    _gate(4, "condensation beats random+direct at K=50", ok,
          f"(mae {d_mae:.2f} vs {r_mae:.2f}, spearman {d_sp:.3f} vs {r_sp:.3f}, "
          f"wins {wins}/20, {elapsed:.0f}s)")


def test_criterion_5_score_criteria_overlap(tmp_path):
    manifest, files = saved_population(*generate_population(SynthConfig(seed=0)), tmp_path)
    table = score_dataset(manifest, files)
    by_pds = set(select_topk(table, 100, "pds_env").indices.tolist())
    by_jsd = set(select_topk(table, 100, "jsd_bits").indices.tolist())
    overlap = len(by_pds & by_jsd) / 100.0
    _gate(5, "pds/jsd top-100 overlap", overlap >= 0.5, f"(overlap {overlap:.2f})")


def test_criterion_6_knn_self_prediction_exact(tmp_path):
    manifest, files = saved_population(*generate_population(
        SynthConfig(m_models=20, n_samples=300, c_classes=4, ability_dim=3, seed=2)), tmp_path)
    ids = manifest.model_ids()
    split = ModelSplit(source_ids=ids, target_ids=ids)
    report = run_pipeline(manifest, files, split, "random",
                          PredictorConfig(kind="knn", k_neighbors=1), k=12, seed=0)
    exact = all(t == p for _, t, p in report.pairs)
    _gate(6, "1-NN self prediction exact", report.mae_pp == 0.0 and exact,
          f"(mae {report.mae_pp})")


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(99)
    details = []

    # medoid selection vs exhaustive enumeration
    med_ok = True
    for n, k in [(10, 2), (12, 3), (11, 3)]:
        x = rng.random((n, 3))
        ours = kmedoids_objective(x, select_kmedoids(x, k, seed=0).indices)
        best = min(kmedoids_objective(x, c)
                   for c in itertools.combinations(range(n), k))
        med_ok = med_ok and ours <= 1.05 * best + 1e-12
    details.append(f"medoids<=1.05*opt:{med_ok}")

    # least squares vs explicit normal equations
    x = rng.standard_normal((30, 5))
    y = rng.random(30)
    model = train("linear", x, y)
    a = np.column_stack([x, np.ones(30)])
    w = np.linalg.inv(a.T @ a + 1e-8 * np.eye(6)) @ a.T @ y
    lin_ok = (np.abs(model.linear_weights - w[:5]).max() < 1e-6
              and abs(model.linear_intercept - w[5]) < 1e-6)
    details.append(f"linear:{lin_ok}")

    # correlations vs naive O(n^2) / covariance-formula oracles
    t, p = rng.random(50), rng.integers(0, 6, 50).astype(float)
    naive_rank = lambda v: np.array(
        [1 + sum(1 for u in v if u < w) + (sum(1 for u in v if u == w) - 1) / 2
         for w in v])
    rho_naive = pearson(naive_rank(t), naive_rank(p))
    corr_ok = abs(spearman(t, p) - rho_naive) < 1e-12
    cov = np.mean((t - t.mean()) * (p - p.mean()))
    corr_ok = corr_ok and abs(pearson(t, p) - cov / (t.std() * p.std())) < 1e-12
    details.append(f"correlations:{corr_ok}")

    # principal components vs covariance eigendecomposition
    sig = rng.standard_normal((20, 50))
    proj = pca_fit(sig, 5)
    eig = np.sort(np.linalg.eigvalsh(np.cov(sig, rowvar=False)))[::-1][:5]
    z = pca_transform(proj, sig)
    pca_ok = (np.abs(proj.explained_variance - eig).max() < 1e-6
              and np.abs(np.var(z, axis=0, ddof=1) - eig).max() < 1e-6)
    details.append(f"pca:{pca_ok}")

    ok = med_ok and lin_ok and corr_ok and pca_ok
    _gate(7, "oracle equivalences", ok, "(" + " ".join(details) + ")")


def _run_cli_chain(workdir, threads: int) -> dict[str, bytes]:
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, f"cli failed: {argv}"

    w = str(workdir)
    run("synth", "--workdir", w, "--out", "data", "--models-count", 16,
        "--samples", 150, "--classes", 3, "--dim", 2, "--seed", 13)
    run("score", "--workdir", w, "--manifest", "data/manifest.json",
        "--cutoff", "median", "--out", "scores.csv", "--threads", threads)
    run("select", "--workdir", w, "--manifest", "data/manifest.json",
        "--method", "topk_pds", "--k", 8, "--scores", "scores.csv",
        "--out", "subset.json")
    run("fit", "--workdir", w, "--manifest", "data/manifest.json",
        "--subset", "subset.json", "--predictor", "random_forest",
        "--trees", 24, "--cutoff", "median", "--threads", threads,
        "--out", "model.bin")
    run("predict", "--workdir", w, "--manifest", "data/manifest.json",
        "--model", "model.bin", "--subset", "subset.json", "--cutoff", "median",
        "--out", "pred.json")
    run("evaluate", "--workdir", w, "--manifest", "data/manifest.json",
        "--selection", "topk_pds", "--predictor", "random_forest", "--trees", 24,
        "--k", 8, "--cutoff", "median", "--threads", threads,
        "--out", "report.json")

    artifacts = {}
    for rel in sorted(str(p.relative_to(workdir))
                      for p in workdir.rglob("*") if p.is_file()):
        artifacts[rel] = (workdir / rel).read_bytes()
    return artifacts


def test_criterion_8_cli_chain_deterministic(tmp_path):
    runs = [
        _run_cli_chain(tmp_path / "run1", 1),
        _run_cli_chain(tmp_path / "run2", 1),
        _run_cli_chain(tmp_path / "run3", 8),
    ]
    same_names = set(runs[0]) == set(runs[1]) == set(runs[2])
    mismatched = [name for name in runs[0]
                  if not (runs[0][name] == runs[1][name] == runs[2][name])]
    _gate(8, "CLI chain byte-identical across runs and threads",
          same_names and not mismatched,
          f"({len(runs[0])} artifacts, mismatched: {mismatched})")


def test_criterion_9_budget_monotonicity():
    maes = {10: [], 100: []}
    for seed in range(20):
        with tempfile.TemporaryDirectory() as tmp:
            manifest, files = saved_population(*generate_population(SynthConfig(seed=seed)),
                                               tmp)
            split = split_models(manifest,
                                 ChronologicalSplit(median_date_cutoff(manifest)))
            for k in (10, 100):
                report = run_pipeline(manifest, files, split, *DISCO_CFG,
                                      k=k, seed=seed)
                maes[k].append(report.mae_pp)
    lo, hi = float(np.mean(maes[100])), float(np.mean(maes[10]))
    _gate(9, "mean MAE at K=100 <= K=10", lo <= hi,
          f"(K=100 {lo:.2f} vs K=10 {hi:.2f})")
