"""Output checks that need no stored digest.

Each ``check_*`` function reads one op's artifacts and returns
``(errors, quality)``: a list of failure messages (empty when the op is
correct) and the op's ``(mae_pp, spearman)`` against the manifest's ground
truth, or None when the op produces no estimates.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from disco.harness import (
    SWEEP_HEADER,
    ChronologicalSplit,
    mae,
    median_date_cutoff,
    spearman,
    split_models,
)
from disco.scoring import CSV_HEADER, jsd, pds
from disco.store import BenchmarkManifest, load_manifest, load_tensor

# Scores are written with 9 significant digits ("%.9g").
CSV_REL_TOL = 1e-8
SCORE_SAMPLE_ROWS = 24


def median_split(manifest: BenchmarkManifest):
    return split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))


def _estimates(manifest: BenchmarkManifest, predictions: dict[str, float],
               errors: list[str]) -> tuple[float, float] | None:
    """Range-check estimates and score them against the manifest ground truth."""
    targets = median_split(manifest).target_ids
    if sorted(predictions) != sorted(targets):
        errors.append(f"estimates cover {len(predictions)} models, "
                      f"expected the {len(targets)} targets")
        return None
    bad = [mid for mid, p in predictions.items() if not 0.0 <= p <= 1.0]
    if bad:
        errors.append(f"{len(bad)} estimates outside [0, 1], e.g. {bad[0]}")
    true = np.asarray([manifest.model(mid).true_accuracy for mid in targets])
    pred = np.asarray([predictions[mid] for mid in targets])
    return mae(true, pred), spearman(true, pred)


def check_report(opdir: Path, manifest_path: Path, k: int):
    errors: list[str] = []
    manifest = load_manifest(manifest_path)
    report = json.loads((opdir / "report.json").read_text())
    if report["k"] != k or report["selection"] != "topk_pds":
        errors.append(f"report describes k={report['k']} {report['selection']}")
    for mid, true, _ in report["pairs"]:
        if true != manifest.model(mid).true_accuracy:
            errors.append(f"report truth for {mid} differs from the manifest")
            break
    quality = _estimates(manifest, {mid: p for mid, _, p in report["pairs"]}, errors)
    if quality is not None:
        for name, value in zip(("mae_pp", "spearman"), quality):
            if not math.isclose(value, report[name], rel_tol=1e-12, abs_tol=1e-12):
                errors.append(f"report {name}={report[name]} but pairs give {value}")
    return errors, quality


def _check_scores(path: Path, manifest: BenchmarkManifest, errors: list[str]) -> np.ndarray:
    """Recompute sampled rows with the scalar pds/jsd; return the jsd column."""
    lines = path.read_text().splitlines()
    n = manifest.num_samples
    if lines[0] != CSV_HEADER or len(lines) != n + 1:
        errors.append(f"scores.csv has {len(lines) - 1} rows, expected {n}")
        return np.zeros(0)
    table = np.asarray([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if not np.array_equal(table[:, 0], np.arange(n)):
        errors.append("scores.csv sample indices are not 0..N-1")
    rows = np.sort(np.random.default_rng(n).choice(n, SCORE_SAMPLE_ROWS, replace=False))
    sources = [load_tensor(manifest, mid).values[rows]
               for mid in median_split(manifest).source_ids]
    stack = np.stack(sources).astype(np.float64)            # (M, rows, C)
    stack /= stack.sum(axis=2, keepdims=True)
    c = manifest.num_classes
    for j, i in enumerate(rows):
        env, eq1 = pds(stack[:, j, :])
        want = (env, eq1, jsd(stack[:, j, :]))
        got = table[i, 1:4]
        if not all(math.isclose(g, w, rel_tol=CSV_REL_TOL, abs_tol=1e-12)
                   for g, w in zip(got, want)):
            errors.append(f"scores.csv row {i} = {list(got)}, scalar scoring gives {want}")
            break
    if not (np.all(table[:, 1] >= 1.0) and np.all(table[:, 1] <= c)):
        errors.append("pds_env outside [1, C]")
    return table[:, 3]


def check_chain(opdir: Path, manifest_path: Path, k: int):
    errors: list[str] = []
    manifest = load_manifest(manifest_path)
    jsd_col = _check_scores(opdir / "scores.csv", manifest, errors)

    subset = json.loads((opdir / "subset.json").read_text())
    idx = np.asarray(subset["indices"])
    if not (idx.size == k == subset["k"] and np.all(np.diff(idx) > 0)
            and idx[0] >= 0 and idx[-1] < manifest.num_samples):
        errors.append("subset indices are not K sorted, unique, in-range samples")
    elif jsd_col.size:
        order = np.lexsort((np.arange(jsd_col.size), -jsd_col))
        if not np.array_equal(np.sort(order[:k]), idx):
            errors.append("subset is not the top-K samples by jsd_bits in scores.csv")

    predictions = json.loads((opdir / "pred.json").read_text())["predictions"]
    return errors, _estimates(manifest, predictions, errors)


def check_sweep(opdir: Path, manifest_path: Path, expected_rows: list[tuple]):
    errors: list[str] = []
    lines = (opdir / "sweep.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    if lines[0] != SWEEP_HEADER or [(r[1], r[2], int(r[3]), int(r[4])) for r in rows] \
            != expected_rows:
        errors.append("sweep.csv does not hold one row per (config, K, seed) in order")
        return errors, None
    maes = np.asarray([float(r[5]) for r in rows])
    rhos = np.asarray([float(r[6]) for r in rows])
    if not (np.all((maes >= 0) & (maes <= 100)) and np.all(np.abs(rhos) <= 1)):
        errors.append("sweep.csv holds mae_pp outside [0, 100] or spearman outside [-1, 1]")
    return errors, (float(maes.mean()), float(rhos.mean()))
