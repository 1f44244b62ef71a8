"""Model signatures on an anchor subset, plus PCA reduction.

A signature concatenates a model's outputs on the anchor samples in subset
order: all C class probabilities per anchor (``probs``), the one-hot argmax
(``onehot``), or a single correctness bit (``correctness``).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dten, store
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
    """Concatenate a model's outputs on the anchors, in subset order.
    ``rows`` are its (K, C) rows at the anchors, as ``anchor_rows`` reads
    them, and give a (D,) signature; a stack of such rows, shaped
    (..., K, C), gives the stack of their signatures, shaped (..., D).
    The result is a new C-contiguous float64 array."""
    if mode not in MODES:
        raise InvalidConfig(f"unknown signature mode {mode!r}")
    idx = np.asarray(subset.indices)
    if rows.ndim < 2 or rows.shape[-2] != idx.size:
        raise LengthMismatch(f"anchor rows of shape {rows.shape} for {idx.size} anchors")
    # argmax on the float32 rows: the float64 cast is exact, so it is the same
    if mode == "correctness":
        if labels is None:
            raise InvalidConfig("correctness mode needs ground-truth labels")
        return store._correct(rows, np.asarray(labels)[idx]).astype(np.float64)
    if mode == "onehot":
        rows = np.arange(rows.shape[-1]) == rows.argmax(axis=-1)[..., None]
    return rows.astype(np.float64, order="C").reshape(
        rows.shape[:-2] + (rows.shape[-2] * rows.shape[-1],))


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


def pca_fit(signatures: np.ndarray, d: int | None = None) -> PcaProjection:
    """The projection that ``pca_fit_transform`` fits on a float64 copy of
    the signatures, which are only read."""
    return pca_fit_transform(np.array(signatures, dtype=np.float64), d)[0]


def pca_fit_transform(matrix: np.ndarray, d: int | None = None
                      ) -> tuple[PcaProjection, np.ndarray]:
    """Principal directions of the mean-centered signature matrix, and the
    projection of its rows, the floats ``pca_transform`` gives.

    Uses the singular value decomposition; keeps the top ``d`` right singular
    directions, reduced to the numeric rank when the data cannot support
    ``d`` (with a RankDeficiencyWarning).  ``d`` None takes the default
    width (``default_pca_dim``) as an upper bound, reduced to the numeric
    rank without a warning.  Each component is sign-fixed so its
    largest-magnitude entry is positive, making fits reproducible.  The
    float64 ``matrix`` is centred in place: it then holds the centred rows,
    and no copy of it is made.
    """
    if matrix.ndim != 2:
        raise DimensionMismatch("signatures must form a 2-D matrix")
    m, dim = matrix.shape
    if m < 2:
        raise TooFewModels(f"PCA needs at least 2 models, got {m}")
    if d is not None and not 1 <= d <= min(m, dim):
        raise DimensionMismatch(f"target dims {d} not in [1, {min(m, dim)}]")
    mean = matrix.mean(axis=0)
    matrix -= mean
    s, vt = np.linalg.svd(matrix, full_matrices=False)[1:]
    tol = max(m, dim) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int((s > tol).sum())
    want = default_pca_dim(m, dim) if d is None else d
    d_eff = min(want, max(rank, 1))
    if d is not None and d_eff < d:
        # attributed to the first caller outside this module (pca_fit's)
        outside = 3 if sys._getframe(1).f_globals is globals() else 2
        warnings.warn(
            f"numeric rank {rank} < requested dims {d}; reducing to {d_eff}",
            RankDeficiencyWarning, stacklevel=outside)
    components = vt[:d_eff]
    flip = components[np.arange(d_eff), np.abs(components).argmax(axis=1)] < 0
    components[flip] *= -1.0
    variance = (s[:d_eff] ** 2) / (m - 1)
    proj = PcaProjection(mean=mean, components=components, explained_variance=variance)
    return proj, matrix @ components.T


def pca_transform(proj: PcaProjection, signature: np.ndarray) -> np.ndarray:
    """Project one signature (or a stacked matrix of them) onto the components."""
    vec = np.asarray(signature, dtype=np.float64)
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
