"""Performance predictors: kNN, ridge-stabilized least squares, bagged
regression trees, and the accuracy readouts (direct and weighted_sum).

A trained PredictorModel optionally bundles the PCA projection used on its
training features; ``predict`` then accepts raw signatures and projects
them itself.  All stored arrays are float64 so that a serialized model
reproduces in-memory predictions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dten
from .errors import (
    DimensionMismatch,
    EmptyModel,
    InvalidConfig,
    InvariantViolation,
    MissingWeights,
    SchemaError,
    TooFewModels,
)
from .selection import AnchorSubset
from .signatures import PcaProjection, pca_arrays, pca_from_arrays, pca_transform
from .workers import fork_map

# The kinds that ``train`` fits, and all predictor kinds.  A readout's
# bundle (direct, weighted_sum) holds only the header.
TRAINED_KINDS = ("knn", "linear", "random_forest")
KINDS = ("direct",) + TRAINED_KINDS + ("weighted_sum",)

RIDGE_EPSILON = 1e-8


@dataclass
class ForestConfig:
    n_trees: int = 200
    min_leaf: int = 2
    # Fraction of features examined per split.  1.0 (all features, i.e.
    # bagged CART) is the default: with few source models and many projected
    # dimensions, per-split feature subsampling forces splits onto
    # components that do not generalize across a chronological model split.
    feature_frac: float = 1.0
    bootstrap: bool = True


@dataclass
class Tree:
    """Flat node table in preorder; feature == -1 marks a leaf."""

    feature: np.ndarray     # (nodes,) int32
    threshold: np.ndarray   # (nodes,) float64
    left: np.ndarray        # (nodes,) int32, -1 for leaves
    right: np.ndarray       # (nodes,) int32
    value: np.ndarray       # (nodes,) float64 leaf means (0 elsewhere)


@dataclass
class PredictorModel:
    kind: str
    projection: PcaProjection | None = None
    # knn payload
    knn_vectors: np.ndarray | None = None
    knn_performances: np.ndarray | None = None
    k_neighbors: int = 5
    # linear payload
    linear_weights: np.ndarray | None = None
    linear_intercept: float = 0.0
    # forest payload
    trees: list[Tree] = field(default_factory=list)
    forest_config: ForestConfig | None = None
    forest_walk: ForestWalk | None = field(default=None, repr=False, compare=False)
    provenance: object = None       # stanza of the bundle it was loaded from


def _fit_linear(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    a = np.column_stack([x, np.ones(x.shape[0])])
    gram = a.T @ a
    gram[np.diag_indices_from(gram)] += RIDGE_EPSILON
    w = np.linalg.solve(gram, a.T @ y)
    return w[:-1], float(w[-1])


def _best_split(xt: np.ndarray, y: np.ndarray, order: np.ndarray, feats: np.ndarray,
                min_leaf: int) -> tuple[int, float] | None:
    """Lowest-SSE threshold over the candidate features; None if no valid cut.

    ``order[j]`` lists the node's rows sorted by feature ``feats[j]`` (ties
    by row index).  Cuts sit after sorted position i, i in [lo, hi), so both
    sides keep ``min_leaf`` rows.  The argmin runs over the cost matrix in
    feature-major order: the lowest cost wins, ties go to the earlier
    feature, then to the earlier cut.
    """
    n = order.shape[1]
    lo, hi = min_leaf - 1, n - min_leaf
    xs = xt.ravel().take(order + feats[:, None] * xt.shape[1])
    ys = y.take(order)
    cy = np.cumsum(ys, axis=1)
    cy2 = np.cumsum(np.square(ys, out=ys), axis=1)
    tot_y, tot_y2 = cy[:, -1:], cy2[:, -1:]
    cy, cy2 = cy[:, lo:hi], cy2[:, lo:hi]

    # cost = (cy2 - cy**2 / counts) + ((tot_y2 - cy2) - (tot_y - cy)**2 / (n - counts)),
    # evaluated in place
    counts = np.arange(lo + 1, hi + 1, dtype=np.float64)
    left = np.square(cy)
    left /= counts
    np.subtract(cy2, left, out=left)
    right = np.subtract(tot_y, cy)
    np.square(right, out=right)
    right /= n - counts
    cost = np.subtract(tot_y2, cy2)
    cost -= right
    cost += left
    np.putmask(cost, ~(xs[:, lo + 1:hi + 1] > xs[:, lo:hi]), np.inf)

    j, i = divmod(int(cost.argmin()), hi - lo)
    if not np.isfinite(cost[j, i]):
        return None
    a, b = float(xs[j, lo + i]), float(xs[j, lo + i + 1])
    t = 0.5 * (a + b)
    # between adjacent doubles the midpoint rounds to one of them; rounded
    # up, ``x <= t`` would send every row left
    return int(feats[j]), a if t == b else t


def _grow_tree(x: np.ndarray, y: np.ndarray, cfg: ForestConfig,
               rng: np.random.Generator) -> Tree:
    """Exact CART grown from feature orders presorted once at the root.

    A node's children inherit its per-feature row orders masked by the
    split (Mehta et al., "SLIQ", 1996), so no node sorts.  Each order then
    equals a stable argsort of the node's own rows, and node rows stay in
    ascending index order; splits, leaf means and the preorder sequence of
    RNG draws are those of sorting every node afresh.
    """
    n, d = x.shape
    mtry = d if cfg.feature_frac >= 1.0 else max(1, int(d * cfg.feature_frac))
    xt = np.ascontiguousarray(x.T)
    all_feats = np.arange(d)
    goes_left = np.zeros(n, dtype=bool)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def build(rows: np.ndarray, order: np.ndarray) -> int:
        order = order.reshape(d, rows.size)
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        ys = y[rows]
        if rows.size < 2 * cfg.min_leaf or (ys == ys[0]).all():
            value[node] = float(ys.mean())
            return node
        if mtry == d:
            split = _best_split(xt, y, order, all_feats, cfg.min_leaf)
        else:
            feats = np.sort(rng.choice(d, size=mtry, replace=False))
            split = _best_split(xt, y, order[feats], feats, cfg.min_leaf)
        if split is None:
            value[node] = float(ys.mean())
            return node
        f, t = split
        mask = xt[f, rows] <= t
        feature[node] = f
        threshold[node] = t
        goes_left[rows] = mask
        to_left = goes_left.take(order).ravel()
        flat = order.ravel()
        left[node] = build(rows[mask], flat.compress(to_left))
        right[node] = build(rows[~mask], flat.compress(~to_left))
        return node

    build(np.arange(n), np.argsort(xt, axis=1, kind="stable"))
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value),
    )


def _fit_one_tree(x: np.ndarray, y: np.ndarray, cfg: ForestConfig,
                  seed: int, index: int) -> Tree:
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    if cfg.bootstrap:
        rows = rng.integers(0, x.shape[0], size=x.shape[0])
        return _grow_tree(x[rows], y[rows], cfg, rng)
    return _grow_tree(x, y, cfg, rng)


def _fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig, seed: int,
                threads: int) -> list[Tree]:
    """All trees in index order, fitted by ``fork_map``'s ``threads``
    worker processes."""
    return fork_map(lambda t: _fit_one_tree(x, y, cfg, seed, t), range(cfg.n_trees),
                    threads)


@dataclass
class ForestWalk:
    """Every tree's nodes in one table, for walking all trees at once.

    Child pointers are global row numbers.  A leaf points to itself on both
    sides and reads feature 0, so a walk is done when no pointer moves.
    """

    roots: np.ndarray       # (trees,) intp
    feature: np.ndarray     # (nodes,) intp
    threshold: np.ndarray   # (nodes,) float64
    left: np.ndarray        # (nodes,) intp
    right: np.ndarray       # (nodes,) intp
    value: np.ndarray       # (nodes,) float64
    n_features: int         # the walk reads z[0 .. n_features - 1]

    @classmethod
    def from_trees(cls, trees: list[Tree]) -> ForestWalk:
        sizes = [t.feature.size for t in trees]
        roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        base = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        left = np.concatenate([t.left for t in trees]) + base
        right = np.concatenate([t.right for t in trees]) + base
        leaf = np.flatnonzero(feature < 0)
        feature[leaf] = 0
        left[leaf] = leaf
        right[leaf] = leaf
        return cls(roots=roots, feature=feature,
                   threshold=np.concatenate([t.threshold for t in trees]),
                   left=left, right=right,
                   value=np.concatenate([t.value for t in trees]),
                   n_features=int(feature.max()) + 1)

    def leaf_values(self, z: np.ndarray) -> np.ndarray:
        """Each tree's leaf value for feature vector ``z``, in tree order."""
        nodes = self.roots
        while True:
            nxt = np.where(z[self.feature[nodes]] <= self.threshold[nodes],
                           self.left[nodes], self.right[nodes])
            if np.array_equal(nxt, nodes):
                return self.value[nodes]
            nodes = nxt


def train(kind: str, features: np.ndarray, performances: Sequence[float], *,
          k_neighbors: int = 5, forest: ForestConfig | None = None, seed: int = 0,
          projection: PcaProjection | None = None,
          threads: int = 1) -> PredictorModel:
    """Fit a predictor on (already projected) source features.

    ``k_neighbors`` is read by knn only, ``forest`` (default
    ``ForestConfig()``) by random_forest only.
    ``projection``, when given, is bundled so that ``predict`` can consume
    raw signatures.  Forest trees use per-tree RNG streams derived from
    (seed, tree index), so the result is independent of ``threads``, the
    number of worker processes that fit them.
    """
    if kind not in TRAINED_KINDS:
        raise InvalidConfig(f"train does not handle kind {kind!r}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(performances, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch("features must form a 2-D matrix")
    if x.shape[0] != y.size:
        raise DimensionMismatch(f"{x.shape[0]} feature rows vs {y.size} performances")
    if x.shape[0] < 2:
        raise TooFewModels(f"training needs at least 2 models, got {x.shape[0]}")
    if (y < 0).any() or (y > 1).any():
        raise InvariantViolation("performances must lie in [0, 1]")

    model = PredictorModel(kind=kind, projection=projection)
    if kind == "knn":
        model.k_neighbors = int(k_neighbors)
        if not 1 <= model.k_neighbors <= x.shape[0]:
            raise InvalidConfig(f"k_neighbors={model.k_neighbors} not in [1, {x.shape[0]}]")
        model.knn_vectors = x.copy()
        model.knn_performances = y.copy()
    elif kind == "linear":
        model.linear_weights, model.linear_intercept = _fit_linear(x, y)
    else:
        cfg = forest if forest is not None else ForestConfig()
        if cfg.n_trees < 1 or cfg.min_leaf < 1:
            raise InvalidConfig("forest needs n_trees >= 1 and min_leaf >= 1")
        if not 0.0 < cfg.feature_frac <= 1.0:
            raise InvalidConfig(f"forest feature_frac {cfg.feature_frac} not in (0, 1]")
        model.forest_config = cfg
        model.trees = _fit_forest(x, y, cfg, seed, threads)
        model.forest_walk = ForestWalk.from_trees(model.trees)
    return model


def _features_for(model: PredictorModel, signature: np.ndarray) -> np.ndarray:
    z = np.asarray(signature, dtype=np.float64).ravel()
    if model.projection is not None:
        z = pca_transform(model.projection, z)
    if not np.isfinite(z).all():
        raise InvariantViolation("projected features are not finite")
    return z


def predict(model: PredictorModel, signature: np.ndarray) -> float:
    """Predicted full-benchmark performance for one signature, in [0, 1].
    InvariantViolation where the projected features, a knn distance or the
    linear score are not finite, as a bundle's huge stored values make them."""
    # overflow is caught by the checks, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if model.kind == "knn":
            if model.knn_vectors is None:
                raise EmptyModel("knn payload missing")
            z = _features_for(model, signature)
            if z.size != model.knn_vectors.shape[1]:
                raise DimensionMismatch(
                    f"feature length {z.size} != stored {model.knn_vectors.shape[1]}")
            d2 = ((model.knn_vectors - z) ** 2).sum(axis=1)
            if not np.isfinite(d2).all():
                raise InvariantViolation("knn distance is not finite")
            order = np.lexsort((np.arange(d2.size), d2))  # distance, then stored index
            value = float(model.knn_performances[order[:model.k_neighbors]].mean())
        elif model.kind == "linear":
            if model.linear_weights is None:
                raise EmptyModel("linear payload missing")
            z = _features_for(model, signature)
            if z.size != model.linear_weights.size:
                raise DimensionMismatch(
                    f"feature length {z.size} != weights {model.linear_weights.size}")
            value = float(z @ model.linear_weights + model.linear_intercept)
            if not np.isfinite(value):
                raise InvariantViolation("linear score is not finite")
        elif model.kind == "random_forest":
            walk = model.forest_walk
            if walk is None:
                raise EmptyModel("forest payload missing")
            z = _features_for(model, signature)
            if z.size < walk.n_features:
                raise DimensionMismatch(
                    f"feature length {z.size} but the forest splits on feature "
                    f"{walk.n_features - 1}")
            value = float(np.mean(walk.leaf_values(z)))
        else:
            raise InvalidConfig(f"predict does not handle kind {model.kind!r}")
    return float(np.clip(value, 0.0, 1.0))


def predict_weighted_sum(subset: AnchorSubset, correctness_on_subset: Sequence[int]) -> float:
    """Anchor-weighted accuracy: sum of weights times correctness bits."""
    if subset.weights is None:
        raise MissingWeights(f"subset from {subset.method!r} carries no weights")
    w = np.asarray(subset.weights, dtype=np.float64)
    s = np.asarray(correctness_on_subset, dtype=np.float64)
    if w.size != s.size:
        raise DimensionMismatch(f"{w.size} weights vs {s.size} correctness bits")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise MissingWeights("weights must sum to 1")
    return float(np.clip(float(w @ s), 0.0, 1.0))


# --- serialization -----------------------------------------------------------

def _forest_table(trees: list[Tree]) -> tuple[np.ndarray, list[int]]:
    rows = []
    offsets = [0]
    for t in trees:
        n = t.feature.size
        table = np.column_stack([
            np.arange(n, dtype=np.float64), t.feature.astype(np.float64),
            t.threshold, t.left.astype(np.float64), t.right.astype(np.float64),
            t.value,
        ])
        rows.append(table)
        offsets.append(offsets[-1] + n)
    return np.vstack(rows), offsets


def _forest_from_table(table: np.ndarray, offsets: object, n_features: int | None,
                       where: str) -> list[Tree]:
    """Trees from a bundle's node table, rejecting any table a fit cannot give.

    Child pointers must point forward within their own tree, so every walk
    ends at a leaf; anything else raises SchemaError.
    """
    def bad(why: str) -> SchemaError:
        return SchemaError(f"{where}: corrupt forest node table: {why}")

    if table.ndim != 2 or table.shape[1] != 6:
        raise bad(f"expected 6 columns, got shape {table.shape}")
    if (not isinstance(offsets, list) or len(offsets) < 2
            or not all(type(o) is int for o in offsets)):
        raise bad("tree_offsets must list at least two integers")
    off = np.asarray(offsets)
    if off[0] != 0 or off[-1] != table.shape[0] or (np.diff(off) <= 0).any():
        raise bad("tree_offsets must increase strictly from 0 to the node count")
    if not np.isfinite(table).all():
        raise bad("non-finite entry")
    ids, feat, lft, rgt = table[:, 0], table[:, 1], table[:, 3], table[:, 4]
    if (table[:, [0, 1, 3, 4]] % 1 != 0).any():
        raise bad("non-integer node id, feature or child")
    sizes = np.diff(off)
    node = np.arange(table.shape[0]) - np.repeat(off[:-1], sizes)
    if (ids != node).any():
        raise bad("node ids must count 0..n-1 within each tree")
    size = np.repeat(sizes, sizes)
    leaf = feat == -1
    if ((lft[leaf] != -1) | (rgt[leaf] != -1)).any():
        raise bad("a leaf (feature -1) has a child")
    limit = np.iinfo(np.int32).max if n_features is None else n_features
    inner = ~leaf
    if ((feat[inner] < 0) | (feat[inner] >= limit)).any():
        raise bad(f"split feature outside [0, {limit})")
    for child in (lft[inner], rgt[inner]):
        if ((child <= node[inner]) | (child >= size[inner])).any():
            raise bad("a child pointer does not point forward within its tree")

    trees = []
    for a, b in zip(offsets[:-1], offsets[1:]):
        block = table[a:b]
        trees.append(Tree(
            feature=block[:, 1].astype(np.int32),
            threshold=block[:, 2].copy(),
            left=block[:, 3].astype(np.int32),
            right=block[:, 4].astype(np.int32),
            value=block[:, 5].copy(),
        ))
    return trees


def save_predictor(model: PredictorModel, path: str | Path,
                   provenance: dict | None = None) -> None:
    header: dict = {"kind": model.kind, "config": {}}
    if provenance is not None:
        header["provenance"] = provenance
    arrays: dict[str, np.ndarray] = {}
    if model.projection is not None:
        arrays.update(pca_arrays(model.projection))
    if model.kind == "knn":
        header["config"]["k_neighbors"] = model.k_neighbors
        arrays["knn_vectors"] = model.knn_vectors
        arrays["knn_performances"] = model.knn_performances.reshape(1, -1)
    elif model.kind == "linear":
        arrays["linear_weights"] = model.linear_weights.reshape(1, -1)
        arrays["linear_intercept"] = np.asarray([[model.linear_intercept]])
    elif model.kind == "random_forest":
        cfg = model.forest_config or ForestConfig(n_trees=len(model.trees))
        header["config"] = {
            "n_trees": cfg.n_trees, "min_leaf": cfg.min_leaf,
            "feature_frac": cfg.feature_frac, "bootstrap": cfg.bootstrap,
        }
        table, offsets = _forest_table(model.trees)
        header["tree_offsets"] = offsets
        arrays["forest_nodes"] = table
    elif model.kind not in KINDS:
        raise InvalidConfig(f"cannot serialize kind {model.kind!r}")
    dten.write_bundle(path, header, arrays)


def load_predictor(path: str | Path) -> PredictorModel:
    """A predictor saved by ``save_predictor``, with the provenance stanza
    it was saved with (None if it has none).

    A bundle whose kind is unknown, or that lacks a block or config value
    its kind needs, or holds one of the wrong shape, raises SchemaError.
    Blocks its kind does not read are ignored.
    """
    header, arrays = dten.read_bundle(path)
    where = str(path)
    kind = header.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"{path}: unknown predictor kind {kind!r}")
    model = PredictorModel(kind=kind, provenance=header.get("provenance"))
    features = None               # feature length a stored projection fixes
    if "pca_components" in arrays:
        model.projection = pca_from_arrays(arrays, where)
        features = model.projection.d
    config = header.get("config")
    if kind == "knn":
        vectors = dten.bundle_block(arrays, "knn_vectors", where, (None, features))
        k = config.get("k_neighbors") if isinstance(config, dict) else None
        if type(k) is not int or not 1 <= k <= vectors.shape[0]:
            raise SchemaError(f"{path}: knn config needs an integer k_neighbors "
                              f"in [1, {vectors.shape[0]}], got {k!r}")
        model.k_neighbors = k
        model.knn_vectors = vectors
        model.knn_performances = dten.bundle_block(
            arrays, "knn_performances", where, (1, vectors.shape[0])).ravel()
    elif kind == "linear":
        model.linear_weights = dten.bundle_block(
            arrays, "linear_weights", where, (1, features)).ravel()
        model.linear_intercept = float(
            dten.bundle_block(arrays, "linear_intercept", where, (1, 1))[0, 0])
    elif kind == "random_forest":
        if "forest_nodes" not in arrays:
            raise SchemaError(f"{path}: forest bundle has no forest_nodes block")
        model.trees = _forest_from_table(
            arrays["forest_nodes"], header.get("tree_offsets"), features, where)
        model.forest_config = _forest_config(config, len(model.trees), where)
        model.forest_walk = ForestWalk.from_trees(model.trees)
    return model


def _forest_config(config: object, n_trees: int, where: str) -> ForestConfig:
    """A bundle's forest config, holding exactly the fields of ForestConfig
    with values a fit of its ``n_trees`` stored trees can record; anything
    else raises SchemaError."""
    if (not isinstance(config, dict)
            or config.keys() != {f.name for f in fields(ForestConfig)}
            or type(config["n_trees"]) is not int or config["n_trees"] != n_trees
            or type(config["min_leaf"]) is not int or config["min_leaf"] < 1
            or type(config["feature_frac"]) not in (int, float)
            or not 0 < config["feature_frac"] <= 1
            or type(config["bootstrap"]) is not bool):
        raise SchemaError(f"{where}: forest config must hold n_trees (the {n_trees} "
                          f"stored trees), an integer min_leaf >= 1, a feature_frac "
                          f"in (0, 1] and a boolean bootstrap, got {config!r}")
    return ForestConfig(**config)
