"""Anchor subset selectors.

Every selector is a deterministic function of its inputs and the seed, and
returns an AnchorSubset whose indices are unique, sorted ascending.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExceedsDataset,
    InsufficientModels,
    InvariantViolation,
    SchemaError,
    ShapeMismatch,
)
from .scoring import ScoreTable
from .store import BenchmarkManifest, PredictionTensor, correctness, read_json_object

METHODS = (
    "random",
    "topk_pds",
    "topk_jsd",
    "stratified_topk",
    "kmedoids_conf",
    "kmedoids_corr",
    "best_for_validation",
)


@dataclass
class AnchorSubset:
    indices: np.ndarray          # sorted, unique sample indices
    method: str
    seed: int
    weights: np.ndarray | None = None   # per-anchor weights, sum to 1
    criterion: str | None = None

    @property
    def k(self) -> int:
        return int(self.indices.size)

    def validate(self, num_samples: int | None = None) -> None:
        idx = np.asarray(self.indices)
        if idx.size < 1:
            raise InvariantViolation("anchor subset is empty")
        if (np.diff(idx) <= 0).any():
            raise InvariantViolation("anchor indices must be strictly increasing")
        if idx[0] < 0 or (num_samples is not None and idx[-1] >= num_samples):
            raise InvariantViolation("anchor index out of dataset range")
        if self.method not in METHODS:
            raise InvariantViolation(f"unknown selection method {self.method!r}")
        if self.weights is not None:
            w = np.asarray(self.weights)
            if w.shape != idx.shape:
                raise InvariantViolation("weights length differs from indices")
            if (w < 0).any() or abs(float(w.sum()) - 1.0) > 1e-9:
                raise InvariantViolation("weights must be nonnegative and sum to 1")


def _check_budget(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise BudgetExceedsDataset(f"budget K={k} not in [1, {n}]")


def select_random(n: int, k: int, seed: int) -> AnchorSubset:
    """Uniform sample of k indices without replacement."""
    _check_budget(n, k)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return AnchorSubset(indices=idx.astype(np.int64), method="random", seed=seed)


def _rank_by(scores: np.ndarray, sample_index: np.ndarray) -> np.ndarray:
    # Descending score, ties broken by the lower sample index.
    return np.lexsort((sample_index, -scores))


def select_topk(scores: ScoreTable, k: int, criterion: str = "pds_env",
                seed: int = 0) -> AnchorSubset:
    """The k samples with the largest criterion value."""
    _check_budget(len(scores), k)
    order = _rank_by(scores.criterion(criterion), scores.sample_index)
    idx = np.sort(scores.sample_index[order[:k]])
    method = "topk_jsd" if criterion == "jsd_bits" else "topk_pds"
    return AnchorSubset(indices=idx.astype(np.int64), method=method,
                        seed=seed, criterion=criterion)


def select_stratified_topk(scores: ScoreTable, task_tags: Sequence[str], k: int,
                           criterion: str = "pds_env", seed: int = 0) -> AnchorSubset:
    """Equal per-tag budgets of top-criterion samples, remainder by global rank."""
    n = len(scores)
    _check_budget(n, k)
    if len(task_tags) != n:
        raise ShapeMismatch(f"{len(task_tags)} tags for {n} samples")
    tags = np.asarray(task_tags, dtype=object)
    distinct = sorted(set(task_tags))
    quota = k // len(distinct)

    order = _rank_by(scores.criterion(criterion), scores.sample_index)
    ranked = scores.sample_index[order]
    chosen: list[int] = []
    taken = np.zeros(n, dtype=bool)
    for tag in distinct:
        members = ranked[tags[ranked] == tag][:quota]
        chosen.extend(int(i) for i in members)
        taken[members] = True
    for i in ranked:
        if len(chosen) == k:
            break
        if not taken[i]:
            chosen.append(int(i))
            taken[i] = True
    idx = np.sort(np.asarray(chosen, dtype=np.int64))
    return AnchorSubset(indices=idx, method="stratified_topk", seed=seed,
                        criterion=criterion)


def build_embeddings(
    tensors: Sequence[PredictionTensor] | Mapping[str, PredictionTensor],
    manifest: BenchmarkManifest,
    kind: str,
) -> np.ndarray:
    """Per-sample embedding across models: ground-truth-class probability
    (``conf``) or correctness bit (``corr``).  Shape (N, M)."""
    pool = ([tensors[k] for k in sorted(tensors)] if isinstance(tensors, Mapping)
            else list(tensors))
    if not pool:
        raise InsufficientModels("embeddings need at least one model")
    n, c = manifest.num_samples, manifest.num_classes
    labels = np.asarray(manifest.labels)
    cols = []
    for t in pool:
        if t.values.shape != (n, c):
            raise ShapeMismatch(
                f"tensor {t.model_id!r} shape {t.values.shape} != ({n}, {c})")
        if kind == "conf":
            cols.append(t.values.astype(np.float64)[np.arange(n), labels])
        elif kind == "corr":
            cols.append(correctness(t, manifest).bits.astype(np.float64))
        else:
            raise SchemaError(f"unknown embedding kind {kind!r}")
    return np.column_stack(cols)


def kmedoids_objective(embeddings: np.ndarray, indices: Sequence[int]) -> float:
    """Sum over points of the Euclidean distance to the closest medoid."""
    x = np.asarray(embeddings, dtype=np.float64)
    med = x[np.asarray(indices, dtype=np.int64)]
    diff = x[:, None, :] - med[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).min(axis=1).sum())


def _distance_matrix(x: np.ndarray) -> np.ndarray:
    g = x @ x.T
    sq = np.diag(g).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.T)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


def _seed_medoids(d: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    # Greedy k-means++-style: sample candidates by squared distance to the
    # chosen set, keep the one that most reduces the objective.
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


MAX_SWAP_PASSES = 100


def select_kmedoids(embeddings: np.ndarray, k: int, seed: int,
                    method_label: str = "kmedoids_conf") -> AnchorSubset:
    """Medoid anchors minimizing total point-to-anchor distance.

    Greedy seeding followed by swap passes; each pass applies the single
    best strictly-improving (medoid, candidate) exchange, so the objective
    is non-increasing.  Anchor weights are cluster shares.
    """
    subset, _ = kmedoids_with_trace(embeddings, k, seed, method_label)
    return subset


def kmedoids_with_trace(embeddings: np.ndarray, k: int, seed: int,
                        method_label: str = "kmedoids_conf",
                        ) -> tuple[AnchorSubset, list[float]]:
    """As select_kmedoids, also returning the per-pass objective values."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    _check_budget(n, k)
    if k > 1 and bool(np.all(x == x[0])):
        # Degenerate: every embedding identical; any medoid set is optimal.
        idx = np.arange(k, dtype=np.int64)
        return AnchorSubset(indices=idx, method=method_label, seed=seed,
                            weights=np.full(k, 1.0 / k)), [0.0]

    rng = np.random.default_rng(seed)
    d = _distance_matrix(x)
    medoids = sorted(_seed_medoids(d, k, rng))

    trace: list[float] = []
    prev_obj = np.inf
    for _ in range(MAX_SWAP_PASSES):
        dm = d[:, medoids]                       # (n, k)
        nearest_pos = dm.argmin(axis=1)
        if k >= 2:
            two = np.partition(dm, 1, axis=1)[:, :2]
            dn1, dn2 = two[:, 0], two[:, 1]
        else:
            dn1 = dm[:, 0]
            dn2 = np.full(n, np.inf)
        base = float(dn1.sum())
        assert base <= prev_obj + 1e-9, "swap pass increased the objective"
        prev_obj = base
        trace.append(base)

        m1 = np.minimum(d, dn1[:, None])          # keep own medoid available
        m2 = np.minimum(d, dn2[:, None])          # own medoid removed
        s1 = m1.sum(axis=0)
        best = (0.0, -1, -1)                      # (gain, medoid pos, candidate)
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
    return AnchorSubset(indices=np.asarray(medoids, dtype=np.int64),
                        method=method_label, seed=seed, weights=weights), trace


def _scalar_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    vx = float(np.var(x))
    if vx < 1e-18:
        return float(np.mean(y)), 0.0
    b = float(np.cov(x, y, bias=True)[0, 1]) / vx
    a = float(np.mean(y)) - b * float(np.mean(x))
    return a, b


def select_best_for_validation(
    tensors: Sequence[PredictionTensor] | Mapping[str, PredictionTensor],
    manifest: BenchmarkManifest,
    k: int,
    candidates: int = 1000,
    seed: int = 0,
    split_ratio: float = 0.8,
) -> AnchorSubset:
    """Pick, among random candidate subsets, the one whose subset accuracy
    best predicts full accuracy on held-out models (lowest RMSE)."""
    pool = ([tensors[key] for key in sorted(tensors)] if isinstance(tensors, Mapping)
            else list(tensors))
    accs, bit_rows = [], []
    for t in pool:
        acc = manifest.model(t.model_id).true_accuracy
        if acc is None:
            continue
        accs.append(acc)
        bit_rows.append(correctness(t, manifest).bits)
    m = len(accs)
    if m < 4:
        raise InsufficientModels(f"best-for-validation needs >= 4 models with "
                                 f"known accuracy, got {m}")
    if candidates < 1:
        raise BudgetExceedsDataset("candidate count must be >= 1")
    n = manifest.num_samples
    _check_budget(n, k)

    bits = np.stack(bit_rows).astype(np.float64)    # (m, n)
    y = np.asarray(accs)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_train = min(max(int(split_ratio * m), 1), m - 1)
    train, val = perm[:n_train], perm[n_train:]

    best_rmse, best_idx = np.inf, None
    for _ in range(candidates):
        idx = np.sort(rng.choice(n, size=k, replace=False))
        sub = bits[:, idx].mean(axis=1)
        a, b = _scalar_fit(sub[train], y[train])
        resid = a + b * sub[val] - y[val]
        rmse = float(np.sqrt(np.mean(resid ** 2)))
        if rmse < best_rmse:
            best_rmse, best_idx = rmse, idx
    return AnchorSubset(indices=best_idx.astype(np.int64),
                        method="best_for_validation", seed=seed)


# --- serialization -----------------------------------------------------------

def subset_to_obj(subset: AnchorSubset) -> dict:
    return {
        "method": subset.method,
        "seed": subset.seed,
        "indices": [int(i) for i in subset.indices],
        "weights": None if subset.weights is None else [float(w) for w in subset.weights],
        "criterion": subset.criterion,
        "k": subset.k,
    }


def save_subset(subset: AnchorSubset, path: str | Path,
                provenance: dict | None = None) -> None:
    obj = subset_to_obj(subset)
    if provenance is not None:
        obj["provenance"] = provenance
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_subset(path: str | Path) -> AnchorSubset:
    path = Path(path)
    obj = read_json_object(path, "subset file")
    required = {"method", "seed", "indices", "weights", "criterion", "k"}
    if not required <= set(obj):
        raise SchemaError(f"{path}: missing subset keys")
    if set(obj) - required - {"provenance"}:
        raise SchemaError(f"{path}: unexpected subset keys")
    subset = AnchorSubset(
        indices=np.asarray(obj["indices"], dtype=np.int64),
        method=obj["method"],
        seed=int(obj["seed"]),
        weights=None if obj["weights"] is None else np.asarray(obj["weights"]),
        criterion=obj["criterion"],
    )
    if subset.k != obj["k"]:
        raise SchemaError(f"{path}: k={obj['k']} does not match {subset.k} indices")
    subset.validate()
    return subset


def subset_provenance(path: str | Path) -> dict | None:
    """Provenance stanza recorded alongside a serialized subset, if any."""
    return read_json_object(path, "subset file").get("provenance")
