"""Model splits, prediction-quality metrics, and end-to-end pipelines.

``run_pipeline`` wires the stages together: score the benchmark with the
source models, select anchors, build source signatures, fit the projection
and predictor, then estimate every target model from its own anchor
outputs.  Target tensors are only ever touched in that final stage.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    EmptySide,
    InsufficientModels,
    InvalidConfig,
    LengthMismatch,
    MissingDates,
    ZeroVariance,
)
from .predictors import (
    ForestConfig,
    PredictorModel,
    predict,
    predict_weighted_sum,
    train,
)
from .scoring import ScoreTable, score_dataset
from .selection import (
    AnchorSubset,
    build_embeddings,
    select_best_for_validation,
    select_kmedoids,
    select_random,
    select_stratified_topk,
    select_topk,
)
from .signatures import build_signature, default_pca_dim, pca_fit, pca_transform
from .store import BenchmarkManifest, PredictionTensor, correctness

PREDICTOR_KINDS = ("direct", "weighted_sum", "knn", "linear", "random_forest")


# --- model splits ------------------------------------------------------------

@dataclass
class ChronologicalSplit:
    cutoff: _dt.date


@dataclass
class UniformSplit:
    ratio: float
    seed: int = 0


@dataclass
class ModelSplit:
    source_ids: list[str]
    target_ids: list[str]
    policy: str


def _eligible(manifest: BenchmarkManifest) -> list:
    return [m for m in manifest.models if m.true_accuracy is not None]


def split_models(manifest: BenchmarkManifest,
                 policy: ChronologicalSplit | UniformSplit) -> ModelSplit:
    """Partition the models with known accuracy into sources and targets."""
    models = _eligible(manifest)
    if not models:
        raise InsufficientModels("no models with known accuracy to split")
    if isinstance(policy, ChronologicalSplit):
        for m in models:
            if m.release_date is None:
                raise MissingDates(f"model {m.model_id!r} has no release date")
        source = [m.model_id for m in models if m.release_date < policy.cutoff]
        target = [m.model_id for m in models if m.release_date >= policy.cutoff]
        label = f"chronological({policy.cutoff.isoformat()})"
    elif isinstance(policy, UniformSplit):
        if not 0.0 < policy.ratio < 1.0:
            raise InvalidConfig(f"split ratio {policy.ratio} not in (0, 1)")
        ids = [m.model_id for m in models]
        rng = np.random.default_rng(policy.seed)
        perm = rng.permutation(len(ids))
        n_src = int(policy.ratio * len(ids))
        source = [ids[i] for i in perm[:n_src]]
        target = [ids[i] for i in perm[n_src:]]
        label = f"uniform({policy.ratio},{policy.seed})"
    else:
        raise InvalidConfig(f"unknown split policy: {policy!r}")
    if not source or not target:
        raise EmptySide(
            f"split left {len(source)} source / {len(target)} target models")
    return ModelSplit(source_ids=source, target_ids=target, policy=label)


def median_date_cutoff(manifest: BenchmarkManifest) -> _dt.date:
    """Smallest date that puts the lower-median half strictly before it."""
    models = _eligible(manifest)
    if not models:
        raise InsufficientModels("no models with known accuracy")
    ordinals = np.asarray(sorted(m.release_date.toordinal() for m in models))
    return _dt.date.fromordinal(int(math.ceil(float(np.median(ordinals)))))


# --- metrics -----------------------------------------------------------------

def mae(true: np.ndarray, pred: np.ndarray) -> float:
    """Mean absolute error in percentage points."""
    t = np.asarray(true, dtype=np.float64).ravel()
    p = np.asarray(pred, dtype=np.float64).ravel()
    if t.size != p.size:
        raise LengthMismatch(f"{t.size} true values vs {p.size} predictions")
    if t.size == 0:
        raise LengthMismatch("empty inputs")
    return float(100.0 * np.abs(t - p).mean())


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
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


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.size != b.size:
        raise LengthMismatch(f"{a.size} vs {b.size} values")
    if a.size < 2:
        raise LengthMismatch("correlation needs at least 2 points")
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float((a * a).sum()) * float((b * b).sum()))
    if denom == 0.0:
        raise ZeroVariance("correlation undefined for a constant input")
    return float((a * b).sum() / denom)


def spearman(true: np.ndarray, pred: np.ndarray) -> float:
    """Rank correlation with mid-rank tie handling."""
    return pearson(midranks(true), midranks(pred))


# --- pipeline ----------------------------------------------------------------

@dataclass
class SelectionConfig:
    method: str = "topk_pds"
    criterion: str | None = None          # stratified_topk only; default pds_env
    candidates: int = 1000                # best_for_validation
    split_ratio: float = 0.8              # best_for_validation


@dataclass
class PredictorConfig:
    kind: str = "random_forest"
    signature_mode: str = "probs"
    pca_dim: int | None = None            # None -> min(256, M_src, D); 0 -> no PCA
    k_neighbors: int = 5
    forest: ForestConfig = field(default_factory=ForestConfig)


@dataclass
class EvalReport:
    mae_pp: float
    spearman: float
    pearson: float
    k: int
    seed: int
    selection: str
    predictor: str
    pairs: list[tuple[str, float, float]]  # (model_id, true, predicted)

    @property
    def method(self) -> str:
        return f"{self.selection}+{self.predictor}"


_SCORED_METHODS = ("topk_pds", "topk_jsd", "stratified_topk")


def _select_anchors(manifest: BenchmarkManifest,
                    source_tensors: Mapping[str, PredictionTensor],
                    cfg: SelectionConfig, k: int, seed: int,
                    scores: ScoreTable | None) -> AnchorSubset:
    method = cfg.method
    if method in _SCORED_METHODS and scores is None:
        scores = score_dataset(manifest, source_tensors)
    if method == "random":
        return select_random(manifest.num_samples, k, seed)
    if method in ("topk_pds", "topk_jsd"):
        criterion = "jsd_bits" if method == "topk_jsd" else "pds_env"
        return select_topk(scores, k, criterion, seed=seed)
    if method == "stratified_topk":
        return select_stratified_topk(scores, manifest.task_tags, k,
                                      cfg.criterion or "pds_env", seed=seed)
    if method in ("kmedoids_conf", "kmedoids_corr"):
        kind = "conf" if method == "kmedoids_conf" else "corr"
        emb = build_embeddings(source_tensors, manifest, kind)
        return select_kmedoids(emb, k, seed, method_label=method)
    if method == "best_for_validation":
        return select_best_for_validation(source_tensors, manifest, k,
                                          candidates=cfg.candidates, seed=seed,
                                          split_ratio=cfg.split_ratio)
    raise InvalidConfig(f"unknown selection method {method!r}")


def condense_and_train(
    manifest: BenchmarkManifest,
    source_tensors: Mapping[str, PredictionTensor],
    source_accuracies: Mapping[str, float],
    selection: SelectionConfig,
    predictor: PredictorConfig,
    k: int,
    seed: int,
    threads: int = 1,
    *,
    scores: ScoreTable | None = None,
) -> tuple[AnchorSubset, PredictorModel | None]:
    """Anchor selection plus predictor training from source models only.

    Returns (subset, model); the model is None for the accuracy-readout
    predictors (direct, weighted_sum), which need no training.  ``scores``
    is the source models' score table when the caller already has it
    (``sweep_budgets`` scores once per sweep); it is computed when needed
    otherwise.
    """
    subset = _select_anchors(manifest, source_tensors, selection, k, seed, scores)
    if predictor.kind in ("direct", "weighted_sum"):
        return subset, None
    if predictor.kind not in PREDICTOR_KINDS:
        raise InvalidConfig(f"unknown predictor kind {predictor.kind!r}")

    sigs = [build_signature(source_tensors[mid], subset, predictor.signature_mode,
                            labels=manifest.labels)
            for mid in sorted(source_tensors)]
    matrix = np.stack([s.vector for s in sigs])
    accs = np.asarray([source_accuracies[mid] for mid in sorted(source_tensors)])

    projection = None
    features = matrix
    if predictor.pca_dim != 0:
        d = predictor.pca_dim or default_pca_dim(matrix.shape[0], matrix.shape[1])
        projection = pca_fit(matrix, d)
        features = pca_transform(projection, matrix)

    if predictor.kind == "knn":
        config: dict | ForestConfig = {"k_neighbors": predictor.k_neighbors}
    elif predictor.kind == "random_forest":
        config = predictor.forest
    else:
        config = {}
    model = train(predictor.kind, features, accs, config, seed=seed,
                  projection=projection, threads=threads)
    return subset, model


def _readout_prediction(manifest: BenchmarkManifest, tensor: PredictionTensor,
                        subset: AnchorSubset, kind: str) -> float:
    bits = correctness(tensor, manifest).bits[subset.indices]
    if kind == "weighted_sum":
        return predict_weighted_sum(subset, bits)
    return float(bits.astype(np.float64).mean())


def run_pipeline(
    manifest: BenchmarkManifest,
    tensors: Mapping[str, PredictionTensor],
    split: ModelSplit,
    selection: SelectionConfig,
    predictor: PredictorConfig,
    k: int,
    seed: int,
    threads: int = 1,
    *,
    scores: ScoreTable | None = None,
) -> EvalReport:
    """Condense with the source models, then evaluate on the target models.

    ``scores``: the source models' score table, as for ``condense_and_train``.
    """
    accuracies: dict[str, float] = {}
    for mid in split.source_ids + split.target_ids:
        acc = manifest.model(mid).true_accuracy
        if acc is None:
            raise InsufficientModels(f"model {mid!r} has no known accuracy")
        accuracies[mid] = acc

    source_tensors = {mid: tensors[mid] for mid in split.source_ids}
    subset, model = condense_and_train(
        manifest, source_tensors, accuracies, selection, predictor, k, seed,
        threads=threads, scores=scores)

    pairs: list[tuple[str, float, float]] = []
    for tid in split.target_ids:
        tensor = tensors[tid]
        if model is None:
            est = _readout_prediction(manifest, tensor, subset, predictor.kind)
        else:
            sig = build_signature(tensor, subset, predictor.signature_mode,
                                  labels=manifest.labels)
            est = predict(model, sig.vector)
        pairs.append((tid, accuracies[tid], est))

    true = np.asarray([p[1] for p in pairs])
    pred = np.asarray([p[2] for p in pairs])
    return EvalReport(
        mae_pp=mae(true, pred),
        spearman=spearman(true, pred),
        pearson=pearson(true, pred),
        k=k, seed=seed,
        selection=selection.method,
        predictor=predictor.kind,
        pairs=pairs,
    )


def sweep_budgets(
    manifest: BenchmarkManifest,
    tensors: Mapping[str, PredictionTensor],
    split: ModelSplit,
    configs: list[tuple[SelectionConfig, PredictorConfig]],
    budgets: list[int],
    seeds: list[int],
    threads: int = 1,
) -> list[EvalReport]:
    """One report per (config, budget, seed), in that loop order.

    Scores depend on neither K nor seed, so the source models are scored at
    most once per sweep.
    """
    if list(budgets) != sorted(budgets):
        raise InvalidConfig("budgets must be sorted ascending")
    scores = None
    reports = []
    for sel_cfg, pred_cfg in configs:
        if scores is None and sel_cfg.method in _SCORED_METHODS:
            scores = score_dataset(manifest,
                                   {mid: tensors[mid] for mid in split.source_ids})
        for k in budgets:
            for seed in seeds:
                reports.append(run_pipeline(manifest, tensors, split, sel_cfg,
                                            pred_cfg, k, seed, threads=threads,
                                            scores=scores))
    return reports


# --- serialization -----------------------------------------------------------

def report_to_obj(report: EvalReport) -> dict:
    return {
        "mae_pp": report.mae_pp,
        "spearman": report.spearman,
        "pearson": report.pearson,
        "k": report.k,
        "seed": report.seed,
        "selection": report.selection,
        "predictor": report.predictor,
        "pairs": [[mid, t, p] for mid, t, p in report.pairs],
    }


def save_report(report: EvalReport, path: str | Path,
                provenance: dict | None = None) -> None:
    obj = report_to_obj(report)
    if provenance is not None:
        obj["provenance"] = provenance
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


SWEEP_HEADER = "method,selection,predictor,k,seed,mae_pp,spearman,pearson"


def write_sweep_csv(reports: list[EvalReport], path: str | Path) -> None:
    lines = [SWEEP_HEADER]
    for r in reports:
        lines.append(f"{r.method},{r.selection},{r.predictor},{r.k},{r.seed},"
                     f"{r.mae_pp:.9g},{r.spearman:.9g},{r.pearson:.9g}")
    Path(path).write_text("\n".join(lines) + "\n")
