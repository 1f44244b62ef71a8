"""Synthetic model populations with known ground truth.

Per-sample correctness probability follows the two-parameter logistic
response model: sigmoid(-alpha_i . theta_m + beta_i) with latent model
ability theta, item discrimination alpha, and item easiness beta.  Each
model's class distribution then places that probability on the true label
and spreads the remainder over the distractor classes with a per-sample
temperature softmax profile shared by all models, so that identical
abilities yield identical tensors.

Ability vectors are folded into the nonnegative orthant and discrimination
vectors are sign-aligned against it with probability ALIGN_PROB per
coordinate.  The alignment makes higher-ability models more accurate (the
raw symmetric draws would not), while the unaligned remainder keeps the
ability-to-accuracy link noisy enough that a chronological split retains
overlap between halves.  Release dates increase with ability norm, so a
date split is a genuine distribution-shift test.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .store import (
    BenchmarkManifest,
    ModelMeta,
    PredictionTensor,
    accuracy,
    correctness,
    manifest_bytes,
    save_tensor,
)

ALIGN_PROB = 0.85


@dataclass
class SynthConfig:
    m_models: int = 200
    n_samples: int = 2000
    c_classes: int = 4
    ability_dim: int = 3
    seed: int = 0
    noise_temperature: float = 0.7
    date_start: _dt.date = _dt.date(2023, 1, 1)
    date_end: _dt.date = _dt.date(2024, 12, 31)

    def validate(self) -> None:
        if self.m_models < 4:
            raise InvalidConfig("need at least 4 models")
        if self.n_samples < 1 or self.ability_dim < 1:
            raise InvalidConfig("sample count and ability dim must be positive")
        if self.c_classes < 2:
            raise InvalidConfig("need at least 2 classes")
        if not self.noise_temperature > 0:
            raise InvalidConfig("noise temperature must be positive")
        if self.date_end < self.date_start:
            raise InvalidConfig("date span is reversed")


@dataclass
class SynthLatents:
    theta: np.ndarray              # (M, dim) ability, nonnegative orthant
    alpha: np.ndarray              # (N, dim) discrimination
    beta: np.ndarray               # (N,) easiness
    distractor_logits: np.ndarray  # (N, C-1)
    distractor_weights: np.ndarray  # (N, C-1) softmax profile
    p_correct: np.ndarray          # (M, N)
    theta_norms: np.ndarray        # (M,)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def distractor_profile(logits: np.ndarray, temperature: float) -> np.ndarray:
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def assemble_tensors(
    labels: np.ndarray,
    p_correct: np.ndarray,
    distractor_logits: np.ndarray,
    temperature: float,
    model_ids: list[str],
) -> dict[str, PredictionTensor]:
    """Build per-model class distributions from correctness probabilities.

    The distractor profile depends on the sample only; models with equal
    p_correct rows therefore receive identical tensors.
    """
    m, n = p_correct.shape
    c = distractor_logits.shape[1] + 1
    if labels.shape != (n,) or len(model_ids) != m:
        raise ShapeMismatch("labels/model_ids inconsistent with p_correct")
    w = distractor_profile(distractor_logits, temperature)
    w_full = np.zeros((n, c))
    mask = np.ones((n, c), dtype=bool)
    mask[np.arange(n), labels] = False
    w_full[mask] = w.ravel()   # row-major: ascending class order per sample

    tensors: dict[str, PredictionTensor] = {}
    for j, mid in enumerate(model_ids):
        values = (1.0 - p_correct[j])[:, None] * w_full
        values[np.arange(n), labels] = p_correct[j]
        tensors[mid] = PredictionTensor.from_values(mid, values)
    return tensors


def generate_population(
    config: SynthConfig, return_latents: bool = False,
) -> tuple[BenchmarkManifest, dict[str, PredictionTensor]] | tuple[
        BenchmarkManifest, dict[str, PredictionTensor], SynthLatents]:
    """Draw a synthetic benchmark: manifest plus one tensor per model.

    The RNG draw order (labels, theta, alpha, alignment flips, beta,
    distractor logits) is part of the contract: identical configs give
    byte-identical artifacts.

    The tensors are as built, not as their files load: loading renormalizes
    each row again, and at the default config 280 of the 400 000 rows come
    back an ulp apart.  The stages read the models only from their files,
    so write the population with ``save_population`` and read it through
    ``files.TensorFiles``.
    """
    config.validate()
    m, n, c, dim = (config.m_models, config.n_samples, config.c_classes,
                    config.ability_dim)
    rng = np.random.default_rng(config.seed)

    labels = rng.integers(0, c, size=n).astype(np.int64)
    theta = np.abs(rng.standard_normal((m, dim)))
    alpha_raw = rng.standard_normal((n, dim))
    aligned = rng.random((n, dim)) < ALIGN_PROB
    alpha = np.where(aligned, -np.abs(alpha_raw), np.abs(alpha_raw))
    beta = rng.standard_normal(n)
    distractor_logits = rng.standard_normal((n, c - 1))

    p_correct = sigmoid((-(alpha @ theta.T) + beta[:, None]).T)  # (M, N)

    model_ids = [f"synth-{j:04d}" for j in range(m)]
    tensors = assemble_tensors(labels, p_correct, distractor_logits,
                               config.noise_temperature, model_ids)

    norms = np.linalg.norm(theta, axis=1)
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(norms, kind="stable")] = np.arange(m)
    span_days = (config.date_end - config.date_start).days
    dates = [config.date_start + _dt.timedelta(days=round(int(r) * span_days / (m - 1)))
             for r in rank]

    manifest = BenchmarkManifest(
        benchmark_name=f"synthetic-{config.seed}",
        num_samples=n,
        num_classes=c,
        labels=labels,
        task_tags=[""] * n,
        models=[],
        format_version=1,
    )
    for j, mid in enumerate(model_ids):
        acc = accuracy(correctness(tensors[mid], manifest))
        manifest.models.append(ModelMeta(
            model_id=mid,
            release_date=dates[j],
            true_accuracy=acc,
            tensor_path=f"tensors/{mid}.dten",
        ))
    manifest.validate()

    if return_latents:
        latents = SynthLatents(
            theta=theta, alpha=alpha, beta=beta,
            distractor_logits=distractor_logits,
            distractor_weights=distractor_profile(distractor_logits,
                                                  config.noise_temperature),
            p_correct=p_correct, theta_norms=norms,
        )
        return manifest, tensors, latents
    return manifest, tensors


def oracle_true_performance(
    manifest: BenchmarkManifest,
    tensors: Mapping[str, PredictionTensor],
) -> dict[str, float]:
    """Exact argmax accuracy per model, recomputed from the tensors."""
    out = {}
    for mid in manifest.model_ids():
        out[mid] = accuracy(correctness(tensors[mid], manifest))
    return out


def save_population(manifest: BenchmarkManifest,
                    tensors: Mapping[str, PredictionTensor],
                    out_dir: str | Path) -> Path:
    """Write a self-contained benchmark directory; returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "tensors").mkdir(parents=True, exist_ok=True)
    for meta in manifest.models:
        save_tensor(tensors[meta.model_id], out_dir / meta.tensor_path)
    path = out_dir / "manifest.json"
    path.write_bytes(manifest_bytes(manifest))
    manifest.base_dir = out_dir
    return path
