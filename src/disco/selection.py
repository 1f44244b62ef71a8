"""Anchor subset selectors.

Every selector is a deterministic function of its inputs and the seed, and
returns an AnchorSubset whose indices are unique, sorted ascending.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceedsDataset,
    InsufficientModels,
    InvariantViolation,
    SchemaError,
    ShapeMismatch,
)
from .files import TensorFiles
from .scoring import ScoreTable
from .store import BenchmarkManifest, read_json_object

# The selectors that rank the source models' score table, those that read
# their per-sample summaries, and all selectors.
SCORE_METHODS = ("topk_pds", "topk_jsd", "stratified_topk")
SUMMARY_METHODS = ("kmedoids_conf", "kmedoids_corr", "best_for_validation")
METHODS = ("random",) + SCORE_METHODS + SUMMARY_METHODS


@dataclass
class AnchorSubset:
    indices: np.ndarray          # sorted, unique sample indices
    method: str
    seed: int
    weights: np.ndarray | None = None   # per-anchor weights, sum to 1
    criterion: str | None = None
    provenance: object = None           # stanza of the file it was loaded from

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


def build_embeddings(tensors: TensorFiles, manifest: BenchmarkManifest,
                     kind: str) -> np.ndarray:
    """Per-sample embedding across models: ground-truth-class probability
    (``conf``) or correctness bit (``corr``).  Shape (N, M), the models in
    sorted model-id order.  Only the models' per-sample summaries are
    read."""
    tensors.check_shape(manifest)
    if not len(tensors):
        raise InsufficientModels("embeddings need at least one model")
    if kind not in ("conf", "corr"):
        raise SchemaError(f"unknown embedding kind {kind!r}")
    summaries = [tensors.summary(mid) for mid in tensors]
    if kind == "conf":
        return np.column_stack([s.label_probs for s in summaries])
    return np.column_stack([s.bits.astype(np.float64) for s in summaries])


def kmedoids_objective(embeddings: np.ndarray, indices: Sequence[int]) -> float:
    """Sum over points of the Euclidean distance to the closest medoid."""
    x = np.asarray(embeddings, dtype=np.float64)
    med = x[np.asarray(indices, dtype=np.int64)]
    diff = x[:, None, :] - med[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).min(axis=1).sum())


# Bytes per block of rows, for the tiles of squared distances (two are alive
# while the next one is built) and the blocks of a cluster sum, and the side
# of a square block when symmetrizing: the temporaries stay near 1 MiB
# whatever N is.
_TILE_BYTES = 2 ** 19
_SYM_BLOCK = 256


def _clip_squared_distances(g: np.ndarray) -> None:
    """Overwrite the Gram matrix ``g`` with max(|a|^2 + |b|^2 - 2g, 0), a
    tile of rows at a time; adding -2g equals subtracting 2g exactly."""
    n = g.shape[0]
    sq = np.diag(g).copy()
    rows = max(1, _TILE_BYTES // (8 * n)) if n else 1
    for a in range(0, n, rows):
        tile = sq[a:a + rows, None] + sq
        g[a:a + rows] *= -2.0
        tile += g[a:a + rows]
        np.maximum(tile, 0.0, out=g[a:a + rows])


def distance_matrix(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows, as k-medoids uses them.

    They depend on the embeddings only, so a caller that runs k-medoids for
    several budgets or seeds can build them once and pass them in.
    """
    # Built in place over the Gram matrix, so the only N x N array is the
    # result.  Each pair of blocks mirrored across the diagonal becomes
    # their sum, as d2 + d2.T would be.  Every float is the one the
    # whole-matrix expressions give, and the result is exactly symmetric,
    # so callers read rows where they need columns.
    x = np.asarray(embeddings, dtype=np.float64)
    g = x @ x.T
    _clip_squared_distances(g)
    n = g.shape[0]
    for a in range(0, n, _SYM_BLOCK):
        rows_a = slice(a, a + _SYM_BLOCK)
        for b in range(a, n, _SYM_BLOCK):
            rows_b = slice(b, b + _SYM_BLOCK)
            s = g[rows_a, rows_b] + g[rows_b, rows_a].T
            g[rows_a, rows_b] = s
            g[rows_b, rows_a] = s.T
    g *= 0.5
    np.sqrt(g, out=g)
    np.fill_diagonal(g, 0.0)
    return g


def _seed_medoids(d: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    # Greedy k-means++-style: sample candidates by squared distance to the
    # chosen set, keep the one that most reduces the objective.
    n = d.shape[0]
    trials = 2 + int(math.log2(k + 1))
    first = int(rng.integers(n))
    medoids = [first]
    nearest = d[first].copy()
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
            obj = float(np.minimum(nearest, d[c]).sum())
            if obj < best_obj:
                best_obj, best_c = obj, c
        if best_c < 0:
            best_c = int(np.setdiff1d(np.arange(n), medoids)[0])
        medoids.append(best_c)
        np.minimum(nearest, d[best_c], out=nearest)
    return medoids


MAX_SWAP_PASSES = 100


def select_kmedoids(embeddings: np.ndarray, k: int, seed: int,
                    method_label: str = "kmedoids_conf", *,
                    distances: np.ndarray | None = None) -> AnchorSubset:
    """Medoid anchors minimizing total point-to-anchor distance.

    Greedy seeding followed by swap passes; each pass applies the single
    best strictly-improving (medoid, candidate) exchange, so the objective
    is non-increasing.  Anchor weights are cluster shares.  ``distances``
    is as for ``kmedoids_with_trace``.
    """
    subset, _ = kmedoids_with_trace(embeddings, k, seed, method_label,
                                    distances=distances)
    return subset


def _first_argmin(a: np.ndarray) -> np.ndarray:
    """a.argmin(axis=0) for an array without NaN, without the copy that
    argmin makes along a strided axis."""
    return (a == a.min(axis=0)).argmax(axis=0)


def _two_nearest(d: np.ndarray, medoids: list[int]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's nearest medoid slot (lowest slot on ties), the distance
    to it, and the distance to the next nearest (inf when k == 1)."""
    dm = d[medoids]                               # (k, n): d is symmetric
    nearest_pos = _first_argmin(dm)
    points = np.arange(dm.shape[1])
    dn1 = dm[nearest_pos, points]
    dm[nearest_pos, points] = np.inf
    return nearest_pos, dn1, dm.min(axis=0)


def _rewrite_rows(m: np.ndarray, d: np.ndarray, dn: np.ndarray,
                  rows: np.ndarray) -> None:
    """m[i] = min(d[i], dn[i]) for each i in rows."""
    for i in rows.tolist():
        np.minimum(d[i], dn[i], out=m[i])


def _column_sums(m: np.ndarray, rows: np.ndarray,
                 clip: np.ndarray | None = None) -> np.ndarray:
    """The column sums of m[rows], or of min(m[i], clip[i]) for i in rows,
    added row after row in the order of ``rows``.

    A block of rows is gathered at a time, with the running sum as its
    first row; numpy adds the rows of a C-ordered block in order, so the
    floats are those of one gather summed whole.
    """
    if not rows.size:
        return np.zeros(m.shape[1])
    step = max(1, _TILE_BYTES // (8 * m.shape[1]))
    total = None
    for a in range(0, rows.size, step):
        part = rows[a:a + step]
        lead = 0 if total is None else 1
        block = np.empty((lead + part.size, m.shape[1]))
        if lead:
            block[0] = total
        # the rows are in range; mode="clip" lets take write to out unbuffered
        np.take(m, part, axis=0, out=block[lead:], mode="clip")
        if clip is not None:
            np.minimum(block[lead:], clip[part, None], out=block[lead:])
        total = block.sum(axis=0)
    return total


def _best_swap(m1: np.ndarray, sum1: np.ndarray, sum2: np.ndarray,
               medoids: list[int], base: float) -> tuple[float, int, int]:
    """(gain, medoid slot, candidate) of the best swap; slot -1 if none gains."""
    cost = m1.sum(axis=0) - sum1                  # (k, n)
    cost += sum2
    cost[:, medoids] = np.inf
    cand = cost.argmin(axis=1)
    best = (0.0, -1, -1)
    for pos in range(len(medoids)):
        c = int(cand[pos])
        gain = base - float(cost[pos, c])
        if gain > best[0] + 1e-12:
            best = (gain, pos, c)
    return best


def kmedoids_with_trace(embeddings: np.ndarray, k: int, seed: int,
                        method_label: str = "kmedoids_conf", *,
                        distances: np.ndarray | None = None,
                        ) -> tuple[AnchorSubset, list[float]]:
    """As select_kmedoids, also returning the per-pass objective values.

    ``trace[i]`` is the objective at the start of pass ``i``.  A trace of
    ``MAX_SWAP_PASSES`` entries means the cap stopped the search (unless the
    last allowed pass found no improving swap); the medoids returned then
    include that pass's swap, whose objective is not in the trace.
    ``distances``, when given, must be ``distance_matrix(embeddings)``;
    it is only read, never written.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    _check_budget(n, k)
    if distances is not None and distances.shape != (n, n):
        raise ShapeMismatch(f"distance matrix shape {distances.shape} "
                            f"for {n} embeddings")
    if k > 1 and bool(np.all(x == x[0])):
        # Degenerate: every embedding identical; any medoid set is optimal.
        idx = np.arange(k, dtype=np.int64)
        return AnchorSubset(indices=idx, method=method_label, seed=seed,
                            weights=np.full(k, 1.0 / k)), [0.0]

    rng = np.random.default_rng(seed)
    d = distance_matrix(x) if distances is None else distances
    medoids = sorted(_seed_medoids(d, k, rng))

    # Swapping medoid p for candidate c costs s1 - sum1[p] + sum2[p] at c,
    # where m1 = min(d, dn1) keeps each point's own medoid available,
    # m2 = min(d, dn2) removes it, and sum1/sum2 are the column sums of m1/m2
    # over the cluster of p.  Only m1 is held: its column sums s1 span every
    # cluster.  A cluster's m2 rows are formed from d when its sum2 is
    # re-summed.  One swap moves one medoid, so each pass rewrites only the
    # rows of m1 whose dn1 changed and re-sums only the clusters whose
    # members or member rows changed; every float is the one a full
    # recomputation gives.
    m1 = np.empty_like(d)
    sum1 = np.empty((k, n))              # row p: cluster sum of the medoid in slot p
    sum2 = np.empty((k, n))
    dn1 = dn2 = owner = None
    incoming = -1                        # medoid added by the last swap
    trace: list[float] = []
    prev_obj = np.inf
    for _ in range(MAX_SWAP_PASSES):
        nearest_pos, new1, new2 = _two_nearest(d, medoids)
        base = float(new1.sum())
        if not base <= prev_obj + 1e-9:
            raise InvariantViolation("swap pass increased the objective")
        prev_obj = base
        trace.append(base)

        new_owner = np.asarray(medoids)[nearest_pos]
        if owner is None:
            np.minimum(d, new1[:, None], out=m1)
            dirty1 = dirty2 = set(medoids)
        else:
            ch2 = np.flatnonzero(new2 != dn2)
            _rewrite_rows(m1, d, new1, np.flatnonzero(new1 != dn1))
            # dn1 is the distance to the point's own medoid, so it changes
            # only when the point changes cluster.
            moved = np.flatnonzero(new_owner != owner)
            dirty1 = {incoming, *owner[moved].tolist(), *new_owner[moved].tolist()}
            dirty2 = dirty1.union(new_owner[ch2].tolist())
        dn1, dn2, owner = new1, new2, new_owner

        order = np.argsort(nearest_pos, kind="stable")
        ends = np.cumsum(np.bincount(nearest_pos, minlength=k)).tolist()
        for pos, med in enumerate(medoids):
            if med in dirty2:                     # dirty1 is a subset
                members = order[(ends[pos - 1] if pos else 0):ends[pos]]
                if med in dirty1:
                    sum1[pos] = _column_sums(m1, members)
                sum2[pos] = _column_sums(d, members, dn2)

        best = _best_swap(m1, sum1, sum2, medoids, base)
        if best[1] < 0 or best[0] <= 1e-12:
            break
        pos, incoming = best[1], best[2]
        medoids[pos] = incoming
        medoids.sort()
        # Keep each stored cluster sum beside its medoid as the slots renumber.
        q = medoids.index(incoming)
        for s in (sum1, sum2):
            if q > pos:
                s[pos:q] = s[pos + 1:q + 1]
            elif q < pos:
                s[q + 1:pos + 1] = s[q:pos]

    assign = _first_argmin(d[medoids])
    weights = np.bincount(assign, minlength=k).astype(np.float64) / n
    return AnchorSubset(indices=np.asarray(medoids, dtype=np.int64),
                        method=method_label, seed=seed, weights=weights), trace


# Candidates scored per block: enough to amortise numpy's per-call cost, few
# enough that a block's gathered bits stay small.
_BFV_BLOCK = 128


def _validation_rmse(sub: np.ndarray, train: np.ndarray, val: np.ndarray,
                     y: np.ndarray) -> np.ndarray:
    """Per candidate row of ``sub`` (candidates x models, subset accuracies),
    the validation RMSE of the least-squares line fitted on the training
    models; a constant training row gets the line y = mean(y_train).

    Each float is the one that ``np.var``, ``np.mean`` and
    ``np.cov(x, y, bias=True)`` give for that candidate alone.
    """
    # take() keeps each candidate's values contiguous, so numpy sums a row
    # pairwise exactly as it sums a 1-D array; sub[:, train] would return a
    # column-major array, summed in another order.
    x = sub.take(train, axis=1)
    y_train, y_val = y[train], y[val]
    vx = np.var(x, axis=1)
    mx = np.mean(x, axis=1)
    my = np.mean(y_train)
    pairs = np.empty((x.shape[0], 2, x.shape[1]))
    pairs[:, 0] = x - mx[:, None]
    pairs[:, 1] = y_train - my
    # Multiplying by a transposed view makes matmul call BLAS syrk, as the
    # dot product inside np.cov does; a contiguous copy would call gemm,
    # whose sums round differently.
    cov = np.matmul(pairs, pairs.transpose(0, 2, 1))[:, 0, 1]
    cov *= np.true_divide(1, x.shape[1])
    flat = vx < 1e-18
    b = np.divide(cov, vx, out=np.zeros_like(vx), where=~flat)
    a = my - b * mx                               # exactly my where b == 0
    resid = a[:, None] + b[:, None] * sub.take(val, axis=1) - y_val
    return np.sqrt(np.mean(resid ** 2, axis=1))


def select_best_for_validation(
    tensors: TensorFiles,
    manifest: BenchmarkManifest,
    k: int,
    candidates: int = 1000,
    seed: int = 0,
    split_ratio: float = 0.8,
) -> AnchorSubset:
    """Pick, among random candidate subsets, the one whose subset accuracy
    best predicts full accuracy on held-out models (lowest RMSE; the first
    drawn wins ties).  Only the models' correctness bits are read, from
    their summaries, in sorted model-id order.

    Candidates are drawn one at a time, in a fixed order from the seed, and
    scored in blocks.
    """
    tensors.check_shape(manifest)
    accs, bit_rows = [], []
    for mid in tensors:
        acc = manifest.model(mid).true_accuracy
        if acc is None:
            continue
        accs.append(acc)
        bit_rows.append(tensors.summary(mid).bits)
    m = len(accs)
    if m < 4:
        raise InsufficientModels(f"best-for-validation needs >= 4 models with "
                                 f"known accuracy, got {m}")
    if candidates < 1:
        raise BudgetExceedsDataset("candidate count must be >= 1")
    n = manifest.num_samples
    _check_budget(n, k)

    # Sample-major, so a block gathers whole rows.  The subset accuracies
    # are integer counts over k, exact in any summation order.
    bits_by_sample = np.stack(bit_rows, axis=1)                          # (n, m)
    y = np.asarray(accs)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_train = min(max(int(split_ratio * m), 1), m - 1)
    train, val = perm[:n_train], perm[n_train:]

    best_rmse, best_idx = np.inf, None
    for start in range(0, candidates, _BFV_BLOCK):
        block = np.stack([np.sort(rng.choice(n, size=k, replace=False))
                          for _ in range(min(_BFV_BLOCK, candidates - start))])
        rmse = _validation_rmse(bits_by_sample[block].mean(axis=1), train, val, y)
        i = int(rmse.argmin())
        if rmse[i] < best_rmse:
            best_rmse, best_idx = rmse[i], block[i]
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

    def bad(key: str, want: str) -> SchemaError:
        return SchemaError(f"{path}: subset {key!r} must be {want}")

    # type() rather than isinstance(): JSON true/false load as bools, which
    # are ints to isinstance, and 1.0 must not pass for an index.
    indices, weights = obj["indices"], obj["weights"]
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise bad("indices", "a list of integers")
    for key in ("seed", "k"):
        if type(obj[key]) is not int:
            raise bad(key, "an integer")
    if obj["method"] not in METHODS:
        raise bad("method", f"one of {', '.join(METHODS)}")
    if obj["criterion"] is not None and type(obj["criterion"]) is not str:
        raise bad("criterion", "null or a string")
    if weights is not None and (not isinstance(weights, list)
                                or any(type(w) not in (int, float) for w in weights)):
        raise bad("weights", "null or a list of numbers")
    try:
        idx = np.asarray(indices, dtype=np.int64)
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
    except OverflowError as e:
        raise SchemaError(f"{path}: subset number out of range: {e}") from e
    if w is not None and not np.isfinite(w).all():
        raise bad("weights", "finite")
    subset = AnchorSubset(indices=idx, method=obj["method"], seed=obj["seed"],
                          weights=w, criterion=obj["criterion"],
                          provenance=obj.get("provenance"))
    if subset.k != obj["k"]:
        raise SchemaError(f"{path}: k={obj['k']} does not match {subset.k} indices")
    subset.validate()
    return subset
