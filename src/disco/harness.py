"""Model splits, prediction-quality metrics, and end-to-end pipelines.

``sweep_budgets`` wires the stages together: score the benchmark with the
source models, select anchors, then, per pipeline, fit the projection and
predictor on the source signatures (``fit_predictor``) and estimate every
target model from its own anchor outputs (``predict_targets``), the two
functions ``disco fit`` and ``disco predict`` call.  ``run_pipeline`` is a
sweep of one pipeline.  Every tensor file is checked whole up front, but
each side's outputs are read only once the anchors are selected, only at
the anchors, and one pipeline's side at a time.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Collection, Mapping

import numpy as np

from .errors import (
    EmptySide,
    InsufficientModels,
    InvalidConfig,
    LengthMismatch,
    MissingWeights,
    TooFewModels,
    ZeroVariance,
)
from .files import TensorFiles
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
    METHODS,
    SCORE_METHODS,
    SUMMARY_METHODS,
    AnchorSubset,
    build_embeddings,
    distance_matrix,
    select_best_for_validation,
    select_kmedoids,
    select_random,
    select_stratified_topk,
    select_topk,
)
from .signatures import build_signature, pca_fit_transform
from .store import BenchmarkManifest, accuracy
from .workers import fork_map


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


def known_accuracies(manifest: BenchmarkManifest, ids: list[str]) -> dict[str, float]:
    """Each model's true accuracy; InsufficientModels if one has none."""
    accuracies = {mid: manifest.model(mid).true_accuracy for mid in ids}
    for mid, acc in accuracies.items():
        if acc is None:
            raise InsufficientModels(f"model {mid!r} has no known accuracy")
    return accuracies


def _eligible(manifest: BenchmarkManifest) -> list:
    return [m for m in manifest.models if m.true_accuracy is not None]


def _date_split(manifest: BenchmarkManifest, cutoff: _dt.date) -> tuple[list, list]:
    """The ids of the models with known accuracy released strictly before
    ``cutoff`` and on or after it: sources, targets; either may be empty."""
    models = _eligible(manifest)
    return ([m.model_id for m in models if m.release_date < cutoff],
            [m.model_id for m in models if m.release_date >= cutoff])


def split_models(manifest: BenchmarkManifest,
                 policy: ChronologicalSplit | UniformSplit) -> ModelSplit:
    """Partition the models with known accuracy into sources and targets."""
    models = _eligible(manifest)
    if not models:
        raise InsufficientModels("no models with known accuracy to split")
    if isinstance(policy, ChronologicalSplit):
        source, target = _date_split(manifest, policy.cutoff)
    elif isinstance(policy, UniformSplit):
        if not 0.0 < policy.ratio < 1.0:
            raise InvalidConfig(f"split ratio {policy.ratio} not in (0, 1)")
        ids = [m.model_id for m in models]
        rng = np.random.default_rng(policy.seed)
        perm = rng.permutation(len(ids))
        n_src = int(policy.ratio * len(ids))
        source = [ids[i] for i in perm[:n_src]]
        target = [ids[i] for i in perm[n_src:]]
    else:
        raise InvalidConfig(f"unknown split policy: {policy!r}")
    if not source or not target:
        raise EmptySide(
            f"split left {len(source)} source / {len(target)} target models")
    return ModelSplit(source_ids=source, target_ids=target)


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
    s = a[order]
    # A tie group is a run of equal sorted values, sorted positions i..j;
    # NaN equals nothing, so each NaN is a group of its own.
    first = np.ones(a.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    i = np.flatnonzero(first)
    sizes = np.diff(i, append=a.size)
    j = i + sizes - 1
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (i + j) + 1.0, sizes)
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.size != b.size:
        raise LengthMismatch(f"{a.size} vs {b.size} values")
    if a.size < 2:
        raise LengthMismatch("correlation needs at least 2 points")
    # centred, a repeated value need not come out exactly zero
    if (a == a[0]).all() or (b == b[0]).all():
        raise ZeroVariance("correlation undefined for a constant input")
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
class PredictorConfig:
    kind: str = "random_forest"
    signature_mode: str = "probs"
    pca_dim: int | None = None            # None -> at most min(256, M_src - 1, D); 0 -> no PCA
    k_neighbors: int = 5
    forest: ForestConfig = field(default_factory=ForestConfig)


@dataclass
class EvalReport:
    mae_pp: float
    spearman: float | None        # None where undefined: a constant input
    pearson: float | None
    k: int
    seed: int
    selection: str
    predictor: str
    pairs: list[tuple[str, float, float]]  # (model_id, true, predicted)

    @property
    def method(self) -> str:
        return f"{self.selection}+{self.predictor}"


class SharedSources:
    """What pipelines on one source set compute alike, whatever their K
    or seed.

    ``tensors`` holds the files of every model the pipelines read, sources
    and targets, and their manifest.  Building a SharedSources makes one
    pass over every tensor file, in order, that checks each file whole as
    loading them would.  The same pass keeps the sources' per-sample
    summaries (correctness bits and label-class probabilities) when one of
    ``methods``, the selectors it will serve, reads them, and folds the
    sources' score table (``scores``) when one of them ranks by score.
    After that no tensor is read whole: the pipelines read the score
    table's sample blocks and each model's anchor rows.

    ``scores``, when given, is the score table of these sources, read back
    from a file.  It also holds, built on first use, the k-medoids
    embeddings and distance matrix of one embedding kind, read-only.
    """

    def __init__(self, tensors: TensorFiles, source_ids: list[str], *,
                 scores: ScoreTable | None = None, methods: Collection[str] = METHODS):
        summarize = source_ids if set(methods) & set(SUMMARY_METHODS) else ()
        if scores is None and set(methods) & set(SCORE_METHODS):
            scores = score_dataset(tensors.manifest, tensors._view(source_ids, summarize))
        else:
            tensors.check(summarize)
        self.sources = tensors.select(source_ids)
        self.scores = scores
        self._kmedoids: tuple[str, np.ndarray, np.ndarray] | None = None

    def kmedoids_inputs(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Embeddings of ``kind`` and their distance matrix.  Only the last
        kind asked for is kept."""
        if self._kmedoids is None or self._kmedoids[0] != kind:
            self._kmedoids = None          # free the old N x N matrix first
            emb = build_embeddings(self.sources, kind)
            d = distance_matrix(emb)
            emb.flags.writeable = d.flags.writeable = False
            self._kmedoids = (kind, emb, d)
        return self._kmedoids[1], self._kmedoids[2]

    def drop_kmedoids(self) -> None:
        self._kmedoids = None


# The embedding kind each k-medoids selector clusters.
KMEDOIDS_EMBEDDINGS = {"kmedoids_conf": "conf", "kmedoids_corr": "corr"}


def select_anchors(shared: SharedSources, method: str, k: int,
                   seed: int) -> AnchorSubset:
    """The anchors that selector ``method`` picks from the shared source
    data; the score-ranking methods read only its score table, ``random``
    nothing.  ``stratified_topk`` ranks by ``pds_env``; best-for-validation
    takes its library defaults (1000 candidates, a 0.8 training share)."""
    manifest = shared.sources.manifest
    if method == "random":
        return select_random(manifest.num_samples, k, seed)
    if method in SCORE_METHODS:
        if method == "stratified_topk":
            return select_stratified_topk(shared.scores, manifest.task_tags, k,
                                          seed=seed)
        criterion = "jsd_bits" if method == "topk_jsd" else "pds_env"
        return select_topk(shared.scores, k, criterion, seed=seed)
    if method in KMEDOIDS_EMBEDDINGS:
        emb, d = shared.kmedoids_inputs(KMEDOIDS_EMBEDDINGS[method])
        return select_kmedoids(emb, k, seed, method_label=method, distances=d)
    if method == "best_for_validation":
        return select_best_for_validation(shared.sources, k, seed=seed)
    raise InvalidConfig(f"unknown selection method {method!r}")


def fit_predictor(
    source_tensors: TensorFiles,
    subset: AnchorSubset,
    predictor: PredictorConfig,
    seed: int,
    threads: int = 1,
) -> PredictorModel:
    """The projection and predictor fitted on the source models' signatures
    and their manifest accuracies, stacked in sorted model-id order; for
    the accuracy readouts (direct, weighted_sum), the header-only model
    their bundles hold, and no file is read.  InsufficientModels for a
    source without a known accuracy, then InvalidConfig for an unknown
    kind, MissingWeights for weighted_sum on a subset without anchor
    weights, TooFewModels for a fit on fewer than 2 sources.  Unchecked
    tensor files are checked whole first; then only each source's anchor
    rows are read, and they are freed once the signatures are built.
    """
    ids = list(source_tensors)
    accuracies = known_accuracies(source_tensors.manifest, ids)
    if predictor.kind not in KINDS:
        raise InvalidConfig(f"unknown predictor kind {predictor.kind!r}")
    if predictor.kind == "weighted_sum" and subset.weights is None:
        raise MissingWeights("subset has no anchor weights to fit weighted_sum")
    if predictor.kind not in TRAINED_KINDS:
        return PredictorModel(kind=predictor.kind)
    if len(source_tensors) < 2:
        raise TooFewModels(
            f"fitting needs at least 2 source models, got {len(source_tensors)}")
    source_tensors.check()
    features = build_signature(source_tensors.anchor_rows(ids, subset.indices), subset,
                               predictor.signature_mode,
                               labels=source_tensors.manifest.labels)
    projection = None
    if predictor.pca_dim != 0:
        projection, features = pca_fit_transform(features, predictor.pca_dim)
    y = np.asarray([accuracies[mid] for mid in ids])
    return train(predictor.kind, features, y, k_neighbors=predictor.k_neighbors,
                 forest=predictor.forest, seed=seed, projection=projection, threads=threads)


def condense_and_train(
    source_tensors: TensorFiles,
    method: str,
    predictor: PredictorConfig,
    k: int,
    seed: int,
    threads: int = 1,
) -> tuple[AnchorSubset, PredictorModel]:
    """Anchor selection by selector ``method`` plus predictor training from
    source models only; the model is as from ``fit_predictor``."""
    subset = select_anchors(SharedSources(source_tensors, list(source_tensors),
                                          methods=(method,)), method, k, seed)
    return subset, fit_predictor(source_tensors, subset, predictor, seed, threads=threads)


def predict_targets(tensors: TensorFiles, target_ids: list[str], subset: AnchorSubset,
                    model: PredictorModel, mode: str | None) -> list[float]:
    """Each target model's estimated accuracy, in the order of
    ``target_ids``, from its rows at the anchors: for the accuracy readouts,
    from its correctness bits on the anchors, else ``model``'s prediction
    from its signature in ``mode`` (read by a trained model only).
    ``tensors`` holds at least the targets; unchecked tensor files are
    checked whole first."""
    tensors.check()
    rows = tensors.anchor_rows(target_ids, subset.indices)
    labels = tensors.manifest.labels
    if model.kind in TRAINED_KINDS:
        signatures = build_signature(rows, subset, mode, labels=labels)
        return [predict(model, signature) for signature in signatures]
    bits = build_signature(rows, subset, "correctness", labels=labels)
    if model.kind == "weighted_sum":
        return [predict_weighted_sum(subset, model_bits) for model_bits in bits]
    return [accuracy(model_bits) for model_bits in bits]


def _pipeline_key(target_ids: list[str], subset: AnchorSubset,
                  predictor: PredictorConfig, seed: int) -> tuple:
    """Everything a report's metrics and pairs depend on, once the manifest
    and source models are fixed.  Only forest training reads the seed."""
    weights = (None if subset.weights is None
               else np.asarray(subset.weights, dtype=np.float64).tobytes())
    return (tuple(target_ids),
            np.asarray(subset.indices, dtype=np.int64).tobytes(),
            weights,
            astuple(predictor),
            seed if predictor.kind == "random_forest" else None)


def _defined(metric, true: np.ndarray, pred: np.ndarray) -> float | None:
    """The correlation ``metric`` of the estimates, or None where it is
    undefined because one side is constant."""
    try:
        return metric(true, pred)
    except ZeroVariance:
        return None


def _estimate(tensors: TensorFiles, sources: TensorFiles, target_ids: list[str],
              accuracies: Mapping[str, float], subset: AnchorSubset,
              predictor: PredictorConfig, seed: int, threads: int) -> EvalReport:
    """Fit on ``sources`` as ``fit_predictor`` does, estimate every target
    as ``predict_targets`` does and score the estimates.  The fitted model
    lives only as long as this call."""
    model = fit_predictor(sources, subset, predictor, seed, threads)
    estimates = predict_targets(tensors, target_ids, subset, model, predictor.signature_mode)
    pairs = [(tid, accuracies[tid], est) for tid, est in zip(target_ids, estimates)]
    true = np.asarray([p[1] for p in pairs])
    pred = np.asarray([p[2] for p in pairs])
    return EvalReport(
        mae_pp=mae(true, pred),
        spearman=_defined(spearman, true, pred),
        pearson=_defined(pearson, true, pred),
        k=subset.k, seed=seed,
        selection=subset.method,
        predictor=predictor.kind,
        pairs=pairs,
    )


def run_pipeline(
    tensors: TensorFiles,
    split: ModelSplit,
    method: str,
    predictor: PredictorConfig,
    k: int,
    seed: int,
    threads: int = 1,
) -> EvalReport:
    """Condense with the source models by selector ``method``, then evaluate
    on the target models: a sweep of this one pipeline.  A rank or linear
    correlation that is undefined (every target got the same estimate, or
    has the same accuracy) is None."""
    return sweep_budgets(tensors, split, [(method, predictor)], [k], [seed], threads)[0]


def sweep_budgets(
    tensors: TensorFiles,
    split: ModelSplit,
    configs: list[tuple[str, PredictorConfig]],
    budgets: list[int],
    seeds: list[int],
    threads: int = 1,
) -> list[EvalReport]:
    """One report per (config, budget, seed), in that loop order; a config
    is a selector name and a predictor config.

    Scores, per-sample summaries and k-medoids distances depend on neither
    K nor seed, so one SharedSources computes each at most once per sweep;
    the k-medoids data lives only while its config selects.  Each (selector,
    K, seed) is selected once.  The selections of a k-medoids or
    best-for-validation config run on ``fork_map``'s ``threads`` worker
    processes, (K, seed) cell i on worker i mod W, after this process has
    built the config's k-medoids embeddings and distance matrix, which the
    workers only read; ``threads`` also reaches forest training.  The
    reports do not depend on ``threads``.  A pipeline whose targets,
    anchors, anchor weights and predictor config (and seed, for a forest)
    match one already run is not run again: its report is copied, with this
    cell's K, seed and selector.  Each pipeline run fits through ``fit_predictor`` and
    estimates through ``predict_targets``, as ``disco fit`` and ``disco
    predict`` do: it reads the sources' rows at its own anchors (none for a
    readout), frees them once their signatures are built, then reads the
    targets' rows.  So at most one pipeline's rows of one side are held at
    a time.
    """
    accuracies = known_accuracies(tensors.manifest, split.source_ids + split.target_ids)
    shared = SharedSources(tensors, split.source_ids,
                           methods=[method for method, _ in configs])
    subsets: dict[tuple, AnchorSubset] = {}
    done: dict[tuple, EvalReport] = {}
    reports = []
    for method, predictor in configs:
        cells = [cell for cell in dict.fromkeys((method, k, seed) for k in budgets
                                                for seed in seeds)
                 if cell not in subsets]
        if cells and method in KMEDOIDS_EMBEDDINGS:
            shared.kmedoids_inputs(KMEDOIDS_EMBEDDINGS[method])    # once, before the fork
        # the other selectors take less time than forking a worker costs
        forked = threads if method in SUMMARY_METHODS else 1
        subsets.update(zip(cells, fork_map(lambda cell: select_anchors(shared, *cell),
                                           cells, forked)))
        shared.drop_kmedoids()
        for k in budgets:
            for seed in seeds:
                subset = subsets[method, k, seed]
                key = _pipeline_key(split.target_ids, subset, predictor, seed)
                if key not in done:
                    done[key] = _estimate(tensors, shared.sources, split.target_ids,
                                          accuracies, subset, predictor, seed, threads)
                reports.append(replace(done[key], k=k, seed=seed, selection=method,
                                       pairs=list(done[key].pairs)))
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


def _field(value: float | None) -> str:
    return "nan" if value is None else f"{value:.9g}"


def write_sweep_csv(reports: list[EvalReport], path: str | Path) -> None:
    """One line per report; an undefined correlation reads ``nan``."""
    lines = [SWEEP_HEADER]
    for r in reports:
        lines.append(f"{r.method},{r.selection},{r.predictor},{r.k},{r.seed},"
                     f"{_field(r.mae_pp)},{_field(r.spearman)},{_field(r.pearson)}")
    Path(path).write_text("\n".join(lines) + "\n")
