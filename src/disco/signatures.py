"""Model signatures on an anchor subset, plus PCA reduction.

A signature concatenates a model's outputs on the anchor samples in subset
order: all C class probabilities per anchor (``probs``), the one-hot argmax
(``onehot``), or a single correctness bit (``correctness``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dten
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    LengthMismatch,
    RankDeficiencyWarning,
    TooFewModels,
)
from .selection import AnchorSubset

MODES = ("probs", "onehot", "correctness")
DEFAULT_PCA_CAP = 256


def build_signature(rows: np.ndarray, subset: AnchorSubset, mode: str = "probs",
                    labels: Sequence[int] | None = None) -> np.ndarray:
    """Concatenate the model's outputs on the anchors, in subset order.
    ``rows`` are its (K, C) rows at the anchors, as ``anchor_rows`` reads
    them."""
    if mode not in MODES:
        raise InvalidConfig(f"unknown signature mode {mode!r}")
    idx = np.asarray(subset.indices)
    if rows.shape[0] != idx.size:
        raise LengthMismatch(f"{rows.shape[0]} anchor rows for {idx.size} anchors")
    rows = rows.astype(np.float64)
    if mode == "probs":
        return rows.reshape(-1)
    if mode == "onehot":
        vec = np.zeros_like(rows)
        vec[np.arange(idx.size), rows.argmax(axis=1)] = 1.0
        return vec.reshape(-1)
    if labels is None:
        raise InvalidConfig("correctness mode needs ground-truth labels")
    return (rows.argmax(axis=1) == np.asarray(labels)[idx]).astype(np.float64)


@dataclass
class PcaProjection:
    mean: np.ndarray                 # (D,)
    components: np.ndarray           # (d, D), orthonormal rows
    explained_variance: np.ndarray   # (d,), non-increasing

    @property
    def d(self) -> int:
        return self.components.shape[0]

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def default_pca_dim(n_models: int, dim: int) -> int:
    """Components kept by default: a centred M-row matrix has rank <= M - 1."""
    return min(DEFAULT_PCA_CAP, n_models - 1, dim)


def pca_fit(signatures: np.ndarray, d: int) -> PcaProjection:
    """Principal directions of the mean-centered signature matrix.

    Uses the singular value decomposition; keeps the top ``d`` right singular
    directions, reduced to the numeric rank when the data cannot support
    ``d`` (with a RankDeficiencyWarning).  Each component is sign-fixed so
    its largest-magnitude entry is positive, making fits reproducible.
    """
    x = np.asarray(signatures, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch("signatures must form a 2-D matrix")
    m, dim = x.shape
    if m < 2:
        raise TooFewModels(f"PCA needs at least 2 models, got {m}")
    if not 1 <= d <= min(m, dim):
        raise DimensionMismatch(f"target dims {d} not in [1, {min(m, dim)}]")
    mean = x.mean(axis=0)
    xc = x - mean
    _, s, vt = np.linalg.svd(xc, full_matrices=False)
    tol = max(m, dim) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int((s > tol).sum())
    d_eff = min(d, max(rank, 1))
    if d_eff < d:
        warnings.warn(
            f"numeric rank {rank} < requested dims {d}; reducing to {d_eff}",
            RankDeficiencyWarning, stacklevel=2)
    components = vt[:d_eff].copy()
    flip = components[np.arange(d_eff), np.abs(components).argmax(axis=1)] < 0
    components[flip] *= -1.0
    variance = (s[:d_eff] ** 2) / (m - 1)
    return PcaProjection(mean=mean, components=components, explained_variance=variance)


def pca_transform(proj: PcaProjection, signature: np.ndarray) -> np.ndarray:
    """Project one signature (or a stacked matrix of them) onto the components."""
    vec = np.asarray(signature).astype(np.float64)
    if vec.shape[-1] != proj.input_dim:
        raise LengthMismatch(
            f"signature length {vec.shape[-1]} != projection input {proj.input_dim}")
    return (vec - proj.mean) @ proj.components.T


# --- serialization -----------------------------------------------------------

def pca_arrays(proj: PcaProjection) -> dict[str, np.ndarray]:
    return {
        "pca_mean": proj.mean.reshape(1, -1),
        "pca_components": proj.components,
        "pca_variance": proj.explained_variance.reshape(1, -1),
    }


def pca_from_arrays(arrays: dict[str, np.ndarray], where: str) -> PcaProjection:
    """The projection that ``pca_arrays`` stored in a bundle read from
    ``where``; SchemaError if a block is missing, misshapen or not finite."""
    components = dten.bundle_block(arrays, "pca_components", where, (None, None))
    d, dim = components.shape
    return PcaProjection(
        mean=dten.bundle_block(arrays, "pca_mean", where, (1, dim)).ravel(),
        components=components,
        explained_variance=dten.bundle_block(arrays, "pca_variance", where,
                                             (1, d)).ravel(),
    )
