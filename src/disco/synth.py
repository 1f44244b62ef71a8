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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import dten, store
from .errors import InvalidConfig, ShapeMismatch
from .store import BenchmarkManifest, ModelMeta, accuracy, manifest_bytes

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
        # ``generate_population`` holds every model's float32 rows at once,
        # and float64 (N, C), (M, N) and (N, dim) working arrays
        m, n = self.m_models, self.n_samples
        need = 4 * m * n * self.c_classes + 8 * n * (self.c_classes + m + self.ability_dim)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise InvalidConfig(f"the population needs at least {need} bytes, "
                                f"more than this host's {have} bytes of memory")


@dataclass
class SynthLatents:
    labels: np.ndarray             # (N,) true class
    theta: np.ndarray              # (M, dim) ability, nonnegative orthant
    alpha: np.ndarray              # (N, dim) discrimination
    beta: np.ndarray               # (N,) easiness
    distractor_logits: np.ndarray  # (N, C-1)
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
) -> dict[str, np.ndarray]:
    """Build per-model class distributions from correctness probabilities:
    each model's (N, C) float32 rows, checked and renormalized by the
    ingest kernel one chunk at a time, as a read of a file is.

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

    tensors: dict[str, np.ndarray] = {}
    step = store._chunk_rows(c)
    for j, mid in enumerate(model_ids):
        values = (1.0 - p_correct[j])[:, None] * w_full
        values[np.arange(n), labels] = p_correct[j]
        arr = np.array(values, dtype=np.float32, order="C")
        faults = store._RowFaults()
        for lo in range(0, n, step):
            store._ingest_rows(arr[lo:lo + step], lo, faults)
        faults.raise_for(mid)
        tensors[mid] = arr
    return tensors


def _draw_latents(config: SynthConfig) -> SynthLatents:
    """The population's latent variables.  The RNG draw order (labels,
    theta, alpha, alignment flips, beta, distractor logits) is part of the
    contract: identical configs give byte-identical artifacts."""
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
    return SynthLatents(labels=labels, theta=theta, alpha=alpha, beta=beta,
                        distractor_logits=distractor_logits, p_correct=p_correct,
                        theta_norms=np.linalg.norm(theta, axis=1))


def generate_population(
    config: SynthConfig,
) -> tuple[BenchmarkManifest, dict[str, np.ndarray]]:
    """Draw a synthetic benchmark: the manifest, and each model's (N, C)
    float32 rows by model id, as ``save_population`` writes them.  Each
    model's true accuracy is the argmax accuracy of those rows.

    The rows are as written, not as their files load: loading renormalizes
    each row again, and at the default config 280 of the 400 000 rows come
    back an ulp apart.  The stages read the models only from their files,
    so write the population with ``save_population`` and read it through
    ``files.TensorFiles``.
    """
    config.validate()
    lat = _draw_latents(config)
    m, n, c = config.m_models, config.n_samples, config.c_classes
    labels = lat.labels

    model_ids = [f"synth-{j:04d}" for j in range(m)]
    tensors = assemble_tensors(labels, lat.p_correct, lat.distractor_logits,
                               config.noise_temperature, model_ids)

    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(lat.theta_norms, kind="stable")] = np.arange(m)
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
        acc = accuracy(store._correct(tensors[mid], labels))
        manifest.models.append(ModelMeta(
            model_id=mid,
            release_date=dates[j],
            true_accuracy=acc,
            tensor_path=f"tensors/{mid}.dten",
        ))
    manifest.validate()
    return manifest, tensors


def save_population(manifest: BenchmarkManifest,
                    tensors: Mapping[str, np.ndarray],
                    out_dir: str | Path) -> Path:
    """Write a self-contained benchmark directory, each model's float32
    rows (by model id) to its tensor file; returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "tensors").mkdir(parents=True, exist_ok=True)
    for meta in manifest.models:
        dten.write_dten(out_dir / meta.tensor_path, tensors[meta.model_id])
    path = out_dir / "manifest.json"
    path.write_bytes(manifest_bytes(manifest))
    manifest.base_dir = out_dir
    return path
