from __future__ import annotations

import copy
import datetime as dt
from typing import Mapping

import numpy as np
import pytest
from hypothesis import settings

from disco.files import TensorFiles
from disco.store import BenchmarkManifest, ModelMeta, PredictionTensor, load_manifest
from disco.synth import save_population

# Example times vary with the machine's load, so no example has a deadline.
settings.register_profile("disco", deadline=None)
settings.load_profile("disco")


def make_manifest(labels, num_classes, model_ids=(), accuracies=None, dates=None,
                  task_tags=None, name="toy"):
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    models = []
    for i, mid in enumerate(model_ids):
        acc = None if accuracies is None else accuracies[i]
        date = dt.date(2023, 1, 1) if dates is None else dates[i]
        models.append(ModelMeta(model_id=mid, release_date=date,
                                true_accuracy=acc, tensor_path=f"tensors/{mid}.dten"))
    return BenchmarkManifest(
        benchmark_name=name,
        num_samples=n,
        num_classes=num_classes,
        labels=labels,
        task_tags=list(task_tags) if task_tags is not None else [""] * n,
        models=models,
    )


def tensor_from_rows(model_id, rows):
    return PredictionTensor.from_values(model_id, np.asarray(rows, dtype=np.float32))


def saved_population(manifest, tensors, out_dir):
    """Write ``tensors`` (by model id, or a sequence) where a copy of
    ``manifest`` points, with ``save_population``; return the manifest read
    back and a ``TensorFiles`` over all of its models."""
    if not isinstance(tensors, Mapping):
        tensors = {t.model_id: t for t in tensors}
    manifest = load_manifest(save_population(copy.copy(manifest), tensors, out_dir))
    return manifest, TensorFiles(manifest, manifest.model_ids())


def random_stack(rng, m=None, c=None, peaked=False):
    """Random M x C distribution stack, optionally with near-one-hot rows."""
    m = m or int(rng.integers(2, 7))
    c = c or int(rng.integers(2, 9))
    if peaked:
        logits = rng.standard_normal((m, c)) * 8.0
        z = logits - logits.max(axis=1, keepdims=True)
        w = np.exp(z)
    else:
        w = rng.random((m, c)) + 1e-12
    return w / w.sum(axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
