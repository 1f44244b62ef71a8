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
    TooFewModels,
    ZeroVariance,
)
from .predictors import (
    KINDS,
    TRAINED_KINDS,
    ForestConfig,
    PredictorModel,
    predict,
    predict_weighted_sum,
    train,
)
from .scoring import ScoreTable, score_dataset
from .selection import (
    SCORE_METHODS,
    AnchorSubset,
    build_embeddings,
    distance_matrix,
    select_best_for_validation,
    select_kmedoids,
    select_random,
    select_stratified_topk,
    select_topk,
)
from .signatures import build_signature, default_pca_dim, pca_fit, pca_transform
from .store import BenchmarkManifest, PredictionTensor, accuracy, correctness


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


def known_accuracies(manifest: BenchmarkManifest, ids: list[str]) -> dict[str, float]:
    """Each model's true accuracy; InsufficientModels if one has none."""
    accuracies = {mid: manifest.model(mid).true_accuracy for mid in ids}
    for mid, acc in accuracies.items():
        if acc is None:
            raise InsufficientModels(f"model {mid!r} has no known accuracy")
    return accuracies


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


class SharedSources:
    """What pipelines on one manifest and source set compute alike,
    whatever their K or seed, each part built on first use.

    It holds the source models' score table, each model's correctness bits
    (sources for best-for-validation and ``corr`` embeddings, targets for the
    accuracy readouts) and the k-medoids embeddings and distance matrix of
    one embedding kind.  ``sweep_budgets`` keeps one for the whole sweep;
    ``run_pipeline`` and ``condense_and_train`` make a fresh one when given
    none.  ``scores``, when given, is the score table of these sources, read
    back from a file.  Every array it hands out is read-only.
    """

    def __init__(self, manifest: BenchmarkManifest,
                 tensors: Mapping[str, PredictionTensor], source_ids: list[str],
                 *, scores: ScoreTable | None = None):
        self.manifest = manifest
        self.tensors = tensors
        self.sources = {mid: tensors[mid] for mid in source_ids}
        self._scores = scores
        self._bits: dict[str, np.ndarray] = {}
        self._kmedoids: tuple[str, np.ndarray, np.ndarray] | None = None

    def check(self, manifest: BenchmarkManifest,
              source_tensors: Mapping[str, PredictionTensor]) -> None:
        """Raise InvalidConfig unless built from this manifest and sources."""
        if (manifest is not self.manifest
                or source_tensors.keys() != self.sources.keys()
                or any(source_tensors[mid] is not t for mid, t in self.sources.items())):
            raise InvalidConfig("shared source data was built for other inputs")

    def scores(self) -> ScoreTable:
        if self._scores is None:
            self._scores = score_dataset(self.manifest, self.sources)
        return self._scores

    def bits(self, model_id: str) -> np.ndarray:
        """The model's correctness bits."""
        bits = self._bits.get(model_id)
        if bits is None:
            bits = correctness(self.tensors[model_id], self.manifest)
            bits.flags.writeable = False
            self._bits[model_id] = bits
        return bits

    def kmedoids_inputs(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Embeddings of ``kind`` and their distance matrix.  Only the last
        kind asked for is kept."""
        if self._kmedoids is None or self._kmedoids[0] != kind:
            self._kmedoids = None          # free the old N x N matrix first
            bits = ({mid: self.bits(mid) for mid in self.sources}
                    if kind == "corr" else None)
            emb = build_embeddings(self.sources, self.manifest, kind, bits=bits)
            d = distance_matrix(emb)
            emb.flags.writeable = d.flags.writeable = False
            self._kmedoids = (kind, emb, d)
        return self._kmedoids[1], self._kmedoids[2]

    def drop_kmedoids(self) -> None:
        self._kmedoids = None


def select_anchors(shared: SharedSources, cfg: SelectionConfig, k: int,
                   seed: int) -> AnchorSubset:
    """The anchors that ``cfg`` picks from the shared source data; the
    score-ranking methods read only its score table, ``random`` nothing."""
    manifest = shared.manifest
    method = cfg.method
    if method == "random":
        return select_random(manifest.num_samples, k, seed)
    if method in SCORE_METHODS:
        if method == "stratified_topk":
            return select_stratified_topk(shared.scores(), manifest.task_tags, k,
                                          cfg.criterion or "pds_env", seed=seed)
        criterion = "jsd_bits" if method == "topk_jsd" else "pds_env"
        return select_topk(shared.scores(), k, criterion, seed=seed)
    if method in ("kmedoids_conf", "kmedoids_corr"):
        emb, d = shared.kmedoids_inputs("conf" if method == "kmedoids_conf" else "corr")
        return select_kmedoids(emb, k, seed, method_label=method, distances=d)
    if method == "best_for_validation":
        return select_best_for_validation(
            shared.sources, manifest, k, candidates=cfg.candidates, seed=seed,
            split_ratio=cfg.split_ratio,
            bits={mid: shared.bits(mid) for mid in shared.sources})
    raise InvalidConfig(f"unknown selection method {method!r}")


def fit_predictor(
    manifest: BenchmarkManifest,
    source_tensors: Mapping[str, PredictionTensor],
    source_accuracies: Mapping[str, float],
    subset: AnchorSubset,
    predictor: PredictorConfig,
    seed: int,
    threads: int = 1,
) -> PredictorModel | None:
    """The projection and predictor fitted on the source models' signatures,
    stacked in sorted model-id order; None for the accuracy readouts
    (direct, weighted_sum).  Each source tensor is looked up once, so a
    mapping that loads tensors on lookup holds one at a time.
    """
    if predictor.kind not in KINDS:
        raise InvalidConfig(f"unknown predictor kind {predictor.kind!r}")
    if predictor.kind not in TRAINED_KINDS:
        return None
    if len(source_tensors) < 2:
        raise TooFewModels(f"fitting needs at least 2 source models, "
                           f"got {len(source_tensors)}")

    ids = sorted(source_tensors)
    matrix = np.stack([build_signature(source_tensors[mid], subset,
                                       predictor.signature_mode,
                                       labels=manifest.labels)
                       for mid in ids])
    accs = np.asarray([source_accuracies[mid] for mid in ids])

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
    return train(predictor.kind, features, accs, config, seed=seed,
                 projection=projection, threads=threads)


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
    shared: SharedSources | None = None,
) -> tuple[AnchorSubset, PredictorModel | None]:
    """Anchor selection plus predictor training from source models only.

    Returns (subset, model), the model as from ``fit_predictor``.
    ``shared`` holds what the caller has already computed from these
    source models (``sweep_budgets`` keeps one per sweep); it must have
    been built from the same manifest and source tensors.
    """
    if shared is None:
        # Lives only through selection, so the score table is not held
        # while the predictor trains.
        subset = select_anchors(
            SharedSources(manifest, source_tensors, list(source_tensors)),
            selection, k, seed)
    else:
        shared.check(manifest, source_tensors)
        subset = select_anchors(shared, selection, k, seed)
    return subset, fit_predictor(manifest, source_tensors, source_accuracies,
                                 subset, predictor, seed, threads=threads)


def predict_target(shared: SharedSources, target_id: str, subset: AnchorSubset,
                   predictor: PredictorConfig, model: PredictorModel | None) -> float:
    """One target model's estimated accuracy: for the accuracy readouts,
    from its correctness bits on the anchors, else ``model``'s prediction
    from its signature."""
    if predictor.kind not in TRAINED_KINDS:
        bits = shared.bits(target_id)[subset.indices]
        if predictor.kind == "weighted_sum":
            return predict_weighted_sum(subset, bits)
        return accuracy(bits)
    return predict(model, build_signature(shared.tensors[target_id], subset,
                                          predictor.signature_mode,
                                          labels=shared.manifest.labels))


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
    shared: SharedSources | None = None,
) -> EvalReport:
    """Condense with the source models, then evaluate on the target models.

    ``shared``: as for ``condense_and_train``, built from ``manifest``,
    ``tensors`` and ``split.source_ids``.
    """
    accuracies = known_accuracies(manifest, split.source_ids + split.target_ids)
    source_tensors = {mid: tensors[mid] for mid in split.source_ids}
    if shared is not None and shared.tensors is not tensors:
        raise InvalidConfig("shared source data was built for other inputs")
    subset, model = condense_and_train(
        manifest, source_tensors, accuracies, selection, predictor, k, seed,
        threads=threads, shared=shared)
    if shared is None:                   # for the readouts' correctness bits
        shared = SharedSources(manifest, tensors, split.source_ids)

    pairs = [(tid, accuracies[tid],
              predict_target(shared, tid, subset, predictor, model))
             for tid in split.target_ids]
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

    Scores, correctness bits and k-medoids distances depend on neither K nor
    seed, so one SharedSources computes each at most once per sweep; the
    k-medoids data lives only as long as its config.
    """
    if list(budgets) != sorted(budgets):
        raise InvalidConfig("budgets must be sorted ascending")
    shared = SharedSources(manifest, tensors, split.source_ids)
    reports = []
    for sel_cfg, pred_cfg in configs:
        for k in budgets:
            for seed in seeds:
                reports.append(run_pipeline(manifest, tensors, split, sel_cfg,
                                            pred_cfg, k, seed, threads=threads,
                                            shared=shared))
        shared.drop_kmedoids()
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
