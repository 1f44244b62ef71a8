"""Model splits, prediction-quality metrics, and end-to-end pipelines.

``sweep_budgets`` wires the stages together: score the benchmark with the
source models, select anchors, build source signatures, fit the projection
and predictor, then estimate every target model from its own anchor
outputs.  ``run_pipeline`` is a sweep of one pipeline.  Every tensor file
is checked whole up front, but the targets' outputs are read only once the
anchors are selected, and only at the anchors.
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
    MissingDates,
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
from .store import BenchmarkManifest, accuracy, anchor_correctness


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
    """What pipelines on one manifest and source set compute alike,
    whatever their K or seed, each part built on first use.

    ``models`` holds the files of every model the pipelines read, sources
    and targets.  Building a SharedSources checks every tensor file whole,
    in order, as loading them would.  In that same pass it keeps the
    sources' per-sample summaries (correctness bits and label-class
    probabilities) when one of ``methods``, the selectors it will serve,
    reads them.  After that no tensor is read whole: the pipelines read the
    score table's sample blocks and each model's anchor rows.

    It holds the source models' score table and the k-medoids embeddings
    and distance matrix of one embedding kind.  ``scores``, when given, is
    the score table of these sources, read back from a file.  Every array
    it hands out is read-only.
    """

    def __init__(self, manifest: BenchmarkManifest, tensors: TensorFiles,
                 source_ids: list[str], *, scores: ScoreTable | None = None,
                 methods: Collection[str] = METHODS):
        tensors.check_shape(manifest)
        self.manifest = manifest
        self.models = tensors
        self.models.check(source_ids if set(methods) & set(SUMMARY_METHODS) else ())
        self.sources = self.models.select(source_ids)
        self._scores = scores
        self._kmedoids: tuple[str, np.ndarray, np.ndarray] | None = None

    def scores(self) -> ScoreTable:
        if self._scores is None:
            self._scores = score_dataset(self.manifest, self.sources)
        return self._scores

    def kmedoids_inputs(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Embeddings of ``kind`` and their distance matrix.  Only the last
        kind asked for is kept."""
        if self._kmedoids is None or self._kmedoids[0] != kind:
            self._kmedoids = None          # free the old N x N matrix first
            emb = build_embeddings(self.sources, self.manifest, kind)
            d = distance_matrix(emb)
            emb.flags.writeable = d.flags.writeable = False
            self._kmedoids = (kind, emb, d)
        return self._kmedoids[1], self._kmedoids[2]

    def drop_kmedoids(self) -> None:
        self._kmedoids = None


def select_anchors(shared: SharedSources, method: str, k: int,
                   seed: int) -> AnchorSubset:
    """The anchors that selector ``method`` picks from the shared source
    data; the score-ranking methods read only its score table, ``random``
    nothing.  ``stratified_topk`` ranks by ``pds_env``; best-for-validation
    takes its library defaults (1000 candidates, a 0.8 training share)."""
    manifest = shared.manifest
    if method == "random":
        return select_random(manifest.num_samples, k, seed)
    if method in SCORE_METHODS:
        if method == "stratified_topk":
            return select_stratified_topk(shared.scores(), manifest.task_tags, k,
                                          seed=seed)
        criterion = "jsd_bits" if method == "topk_jsd" else "pds_env"
        return select_topk(shared.scores(), k, criterion, seed=seed)
    if method in ("kmedoids_conf", "kmedoids_corr"):
        emb, d = shared.kmedoids_inputs("conf" if method == "kmedoids_conf" else "corr")
        return select_kmedoids(emb, k, seed, method_label=method, distances=d)
    if method == "best_for_validation":
        return select_best_for_validation(shared.sources, manifest, k, seed=seed)
    raise InvalidConfig(f"unknown selection method {method!r}")


def _trains(predictor: PredictorConfig, n_sources: int) -> bool:
    """Whether ``predictor`` is fitted on the sources rather than a readout
    of the anchors (direct, weighted_sum).  InvalidConfig for an unknown
    kind, TooFewModels for a fit on fewer than 2 sources."""
    if predictor.kind not in KINDS:
        raise InvalidConfig(f"unknown predictor kind {predictor.kind!r}")
    if predictor.kind not in TRAINED_KINDS:
        return False
    if n_sources < 2:
        raise TooFewModels(f"fitting needs at least 2 source models, got {n_sources}")
    return True


def _signature_matrix(manifest: BenchmarkManifest, rows: np.ndarray,
                      subset: AnchorSubset, mode: str) -> np.ndarray:
    """The (M, D) stack of the signatures of ``rows``, M models' (K, C)
    rows at the anchors."""
    matrix = None
    for i, model_rows in enumerate(rows):
        signature = build_signature(model_rows, subset, mode, labels=manifest.labels)
        if matrix is None:
            matrix = np.empty((len(rows), signature.size))
        matrix[i] = signature
    return matrix


def _fit(matrix: np.ndarray, accuracies: list[float], predictor: PredictorConfig,
         seed: int, threads: int) -> PredictorModel:
    """The projection and predictor fitted on the signature matrix of models
    of these accuracies."""
    projection = None
    features = matrix
    if predictor.pca_dim != 0:
        projection, features = pca_fit_transform(matrix, predictor.pca_dim)
    return train(predictor.kind, features, np.asarray(accuracies),
                 k_neighbors=predictor.k_neighbors, forest=predictor.forest, seed=seed,
                 projection=projection, threads=threads)


def fit_predictor(
    manifest: BenchmarkManifest,
    source_tensors: TensorFiles,
    source_accuracies: Mapping[str, float],
    subset: AnchorSubset,
    predictor: PredictorConfig,
    seed: int,
    threads: int = 1,
) -> PredictorModel | None:
    """The projection and predictor fitted on the source models' signatures,
    stacked in sorted model-id order; None for the accuracy readouts
    (direct, weighted_sum).  Unchecked tensor files are checked whole
    first; then only each source's anchor rows are read.
    """
    if not _trains(predictor, len(source_tensors)):
        return None
    source_tensors.check_shape(manifest)
    source_tensors.check()
    ids = list(source_tensors)
    matrix = _signature_matrix(manifest, source_tensors.anchor_rows(ids, subset.indices),
                               subset, predictor.signature_mode)
    return _fit(matrix, [source_accuracies[mid] for mid in ids], predictor, seed, threads)


def condense_and_train(
    manifest: BenchmarkManifest,
    source_tensors: TensorFiles,
    source_accuracies: Mapping[str, float],
    method: str,
    predictor: PredictorConfig,
    k: int,
    seed: int,
    threads: int = 1,
) -> tuple[AnchorSubset, PredictorModel | None]:
    """Anchor selection by selector ``method`` plus predictor training from
    source models only; the model is as from ``fit_predictor``."""
    subset = select_anchors(SharedSources(manifest, source_tensors, list(source_tensors),
                                          methods=(method,)), method, k, seed)
    return subset, fit_predictor(manifest, source_tensors, source_accuracies, subset,
                                 predictor, seed, threads=threads)


def _estimates(manifest: BenchmarkManifest, rows: np.ndarray, subset: AnchorSubset,
               predictor: PredictorConfig, model: PredictorModel | None) -> list[float]:
    """Each model's estimated accuracy from ``rows``, its (K, C) rows at the
    anchors: for the accuracy readouts, from its correctness bits on the
    anchors, else ``model``'s prediction from its signature."""
    estimates = []
    for model_rows in rows:
        if predictor.kind not in TRAINED_KINDS:
            bits = anchor_correctness(model_rows, manifest, subset.indices)
            estimates.append(predict_weighted_sum(subset, bits)
                             if predictor.kind == "weighted_sum" else accuracy(bits))
        else:
            estimates.append(predict(model, build_signature(
                model_rows, subset, predictor.signature_mode, labels=manifest.labels)))
    return estimates


def predict_targets(manifest: BenchmarkManifest, tensors: TensorFiles,
                    target_ids: list[str], subset: AnchorSubset,
                    predictor: PredictorConfig, model: PredictorModel | None
                    ) -> list[float]:
    """Each target model's estimated accuracy, in the order of
    ``target_ids``, as ``_estimates`` gives it from its anchor rows.
    ``tensors`` holds at least the targets; unchecked tensor files are
    checked whole first."""
    tensors.check_shape(manifest)
    tensors.check()
    return _estimates(manifest, tensors.anchor_rows(target_ids, subset.indices), subset,
                      predictor, model)


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


def _estimate(manifest: BenchmarkManifest, rows: np.ndarray, sources: list[str],
              target_ids: list[str], accuracies: Mapping[str, float],
              subset: AnchorSubset, predictor: PredictorConfig, seed: int,
              threads: int) -> EvalReport:
    """Fit on the anchor rows of ``sources``, the first ``len(sources)`` of
    ``rows`` (none for a readout), estimate every target from the rest and
    score the estimates.  The fitted model lives only as long as this call."""
    n = len(sources)
    model = (_fit(_signature_matrix(manifest, rows[:n], subset, predictor.signature_mode),
                  [accuracies[mid] for mid in sources], predictor, seed, threads)
             if n else None)
    estimates = _estimates(manifest, rows[n:], subset, predictor, model)
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


def _run(manifest: BenchmarkManifest, tensors: TensorFiles, sources: list[str],
         target_ids: list[str], accuracies: Mapping[str, float],
         subsets: list[AnchorSubset], predictor: PredictorConfig, seed: int,
         threads: int) -> list[EvalReport]:
    """One report per subset.  The anchor rows of all of them are read at
    once, each file once: those of ``sources`` (sorted; none for a
    readout), then those of the targets.  The rows live only during this
    call; each pipeline takes its own slice of them."""
    rows = tensors.anchor_rows(sources + target_ids,
                               np.concatenate([s.indices for s in subsets]))
    reports, at = [], 0
    for subset in subsets:
        k = len(subset.indices)
        reports.append(_estimate(manifest, rows[:, at:at + k], sources, target_ids,
                                 accuracies, subset, predictor, seed, threads))
        at += k
    return reports


def run_pipeline(
    manifest: BenchmarkManifest,
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
    return sweep_budgets(manifest, tensors, split, [(method, predictor)], [k], [seed],
                         threads)[0]


def sweep_budgets(
    manifest: BenchmarkManifest,
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
    K, seed) is selected once.  A pipeline whose targets, anchors, anchor
    weights and predictor config (and seed, for a forest) match one already
    run is not run again: its report is copied, with this cell's K, seed and
    selector.  Per config and seed, the anchor rows of every pipeline not
    run yet are read at once, each file once: at most the sum of the
    budgets in rows per model read.
    """
    if list(budgets) != sorted(budgets):
        raise InvalidConfig("budgets must be sorted ascending")
    accuracies = known_accuracies(manifest, split.source_ids + split.target_ids)
    shared = SharedSources(manifest, tensors, split.source_ids,
                           methods=[method for method, _ in configs])
    subsets: dict[tuple, AnchorSubset] = {}
    done: dict[tuple, EvalReport] = {}
    reports = []
    for method, predictor in configs:
        for k in budgets:
            for seed in seeds:
                if (method, k, seed) not in subsets:
                    subsets[method, k, seed] = select_anchors(shared, method, k, seed)
        shared.drop_kmedoids()
        sources = list(shared.sources) if _trains(predictor, len(shared.sources)) else []
        keys = {(k, seed): _pipeline_key(split.target_ids, subsets[method, k, seed],
                                         predictor, seed)
                for k in budgets for seed in seeds}
        for seed in seeds:
            new = {keys[k, seed]: subsets[method, k, seed] for k in budgets
                   if keys[k, seed] not in done}
            if new:
                done.update(zip(new, _run(manifest, tensors, sources, split.target_ids,
                                          accuracies, list(new.values()), predictor,
                                          seed, threads)))
        reports += [replace(done[keys[k, seed]], k=k, seed=seed, selection=method,
                            pairs=list(done[keys[k, seed]].pairs))
                    for k in budgets for seed in seeds]
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
