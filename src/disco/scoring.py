"""Per-sample disagreement statistics across a pool of models.

For one sample, the pool's predictions form an M x C stack of categorical
distributions.  Two scores drive subset selection:

* ``pds_env``: sum over classes of the per-class maximum probability.  It
  generalizes the count of distinct argmax predictions and lives in
  [1, min(M, C)].  ``pds_eq1`` is the same quantity divided by C.
* ``jsd_bits``: mixture entropy minus mean per-model entropy (base 2),
  equal to the mutual information between a uniformly drawn model index
  and its sampled prediction.

``check_sandwich`` verifies the chain of inequalities tying the two
together: divergence against total variation, total variation against the
envelope ``pds_env - 1``, and the combined quadratic/linear envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    InvalidDistribution,
    LengthMismatch,
    MissingFile,
    NonZeroSum,
    SchemaError,
    TooFewModels,
)
from .files import TensorFiles
from .store import BenchmarkManifest, _chunk_rows

BOUND_SLACK = 1e-9
_ROW_TOL = 1e-9

CSV_HEADER = "sample_index,pds_env,pds_eq1,jsd_bits,mixture_entropy_bits,mean_entropy_bits"


def as_stack(rows: np.ndarray) -> np.ndarray:
    """Validate an M x C stack of per-model distributions for one sample."""
    stack = np.asarray(rows, dtype=np.float64)
    if stack.ndim != 2:
        raise InvalidDistribution(f"stack must be 2-D, got ndim={stack.ndim}")
    if stack.shape[0] < 2:
        raise TooFewModels(f"need at least 2 models in a stack, got {stack.shape[0]}")
    if (stack < -1e-12).any():
        raise InvalidDistribution("stack contains negative probabilities")
    sums = stack.sum(axis=1)
    if (np.abs(sums - 1.0) > _ROW_TOL).any():
        m = int(np.argmax(np.abs(sums - 1.0)))
        raise InvalidDistribution(f"stack row {m} sums to {sums[m]!r}, expected 1")
    return stack


def entropy_bits(dist: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Shannon entropy base 2 with the 0*log(0) = 0 convention."""
    p = np.asarray(dist, dtype=np.float64)
    logs = np.log2(np.where(p > 0.0, p, 1.0))        # log2(1.0) == 0.0
    return -(p * logs).sum(axis=axis)


def pds(stack: np.ndarray) -> tuple[float, float]:
    """Return (pds_env, pds_eq1) for one sample's distribution stack."""
    stack = as_stack(stack)
    m, c = stack.shape
    env = float(np.clip(stack.max(axis=0).sum(), 1.0, min(m, c)))
    return env, env / c


def jsd(stack: np.ndarray) -> float:
    """Generalized Jensen-Shannon divergence of the stack, in bits."""
    stack = as_stack(stack)
    m, c = stack.shape
    mixture = stack.mean(axis=0)
    value = entropy_bits(mixture) - float(np.mean(entropy_bits(stack, axis=1)))
    return float(np.clip(value, 0.0, math.log2(min(m, c))))


def mutual_information_bruteforce(stack: np.ndarray) -> float:
    """MI(model index; sampled prediction) from the explicit joint table.

    The joint is p(m, c) = p_m(c) / M with a uniform model index.  Summation
    is a plain double loop; this is the independent oracle for the identity
    with ``jsd``.
    """
    stack = as_stack(stack)
    m, c = stack.shape
    joint = [[stack[i, j] / m for j in range(c)] for i in range(m)]
    p_model = [sum(joint[i][j] for j in range(c)) for i in range(m)]
    p_class = [sum(joint[i][j] for i in range(m)) for j in range(c)]
    mi = 0.0
    for i in range(m):
        for j in range(c):
            pij = joint[i][j]
            if pij > 0.0:
                mi += pij * math.log2(pij / (p_model[i] * p_class[j]))
    return mi


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two distributions on the same support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatch(f"distribution shapes differ: {p.shape} vs {q.shape}")
    for name, d in (("p", p), ("q", q)):
        if abs(d.sum() - 1.0) > _ROW_TOL or (d < -1e-12).any():
            raise InvalidDistribution(f"{name} is not a probability vector")
    return float(0.5 * np.abs(p - q).sum())


def balance_identity_check(deviations: Sequence[float]) -> bool:
    """Check that positives, negatives, and half the L1 mass agree.

    Requires the deviations to sum to zero within 1e-12.
    """
    a = np.asarray(deviations, dtype=np.float64)
    total = float(a.sum())
    if abs(total) > 1e-12:
        raise NonZeroSum(f"deviations sum to {total!r}, expected 0")
    pos = float(a[a > 0].sum())
    neg = float(-a[a < 0].sum())
    half = float(0.5 * np.abs(a).sum())
    return abs(pos - neg) <= BOUND_SLACK and abs(pos - half) <= BOUND_SLACK


@dataclass
class SandwichReport:
    """Numeric audit of the disagreement-score inequalities for one stack."""

    m: int
    c: int
    pds_env: float
    jsd_bits: float
    envelope: float       # pds_env - 1
    spread: float         # mean total variation from each row to the mixture
    z: int                # max over classes of models strictly above the mixture
    pds_lower: float
    pds_upper: float
    tv_lower: float
    tv_upper: float
    ok_pds: bool
    ok_tv: bool
    ok_spread: bool

    @property
    def ok(self) -> bool:
        return self.ok_pds and self.ok_tv and self.ok_spread


def check_sandwich(stack: np.ndarray) -> SandwichReport:
    """Verify the two-sided envelope bounds on the divergence for one stack."""
    stack = as_stack(stack)
    m, c = stack.shape
    env, _ = pds(stack)
    value = jsd(stack)
    e = env - 1.0

    mixture = stack.mean(axis=0)
    tv_rows = 0.5 * np.abs(stack - mixture).sum(axis=1)
    u = float(tv_rows.mean())

    log2m = math.log2(m)
    pds_lower = 2.0 / (m * m * math.log(2)) * e * e
    pds_upper = m / (m - 1.0) * log2m * e
    tv_lower = 2.0 / math.log(2) * float((tv_rows ** 2).mean())
    tv_upper = m / (m - 1.0) * log2m * u

    # Per-class spread/envelope: deviations above the mixture, counted and
    # bounded class by class; the aggregate bound uses the worst-case count.
    dev = stack - mixture
    e_cls = dev.max(axis=0)
    u_cls = 0.5 * np.abs(dev).mean(axis=0)
    z_cls = (dev > 0.0).sum(axis=0)
    ok_spread = bool(
        np.all(e_cls / m - BOUND_SLACK <= u_cls)
        and np.all(u_cls <= z_cls * e_cls / m + BOUND_SLACK)
    )
    z = int(z_cls.max())
    ok_spread = ok_spread and (e / m - BOUND_SLACK <= u <= z * e / m + BOUND_SLACK)

    return SandwichReport(
        m=m, c=c, pds_env=env, jsd_bits=value, envelope=e, spread=u, z=z,
        pds_lower=pds_lower, pds_upper=pds_upper,
        tv_lower=tv_lower, tv_upper=tv_upper,
        ok_pds=pds_lower - BOUND_SLACK <= value <= pds_upper + BOUND_SLACK,
        ok_tv=tv_lower - BOUND_SLACK <= value <= tv_upper + BOUND_SLACK,
        ok_spread=ok_spread,
    )


@dataclass
class ScoreTable:
    """Per-sample disagreement scores in sample order."""

    sample_index: np.ndarray
    pds_env: np.ndarray
    pds_eq1: np.ndarray
    jsd_bits: np.ndarray
    mean_entropy_bits: np.ndarray
    mixture_entropy_bits: np.ndarray

    def __len__(self) -> int:
        return self.sample_index.size

    def criterion(self, name: str) -> np.ndarray:
        if name not in ("pds_env", "pds_eq1", "jsd_bits"):
            raise KeyError(f"unknown selection criterion: {name!r}")
        return getattr(self, name)


def score_dataset(manifest: BenchmarkManifest, tensors: TensorFiles) -> ScoreTable:
    """Score every sample of the benchmark across the given model pool,
    stacked in sorted model-id order.  One checked pass reads each file
    once, a stripe of samples at a time, and raises what loading the files
    in the order given would; no tensor is ever held whole."""
    tensors.check_shape(manifest)
    m, n, c = len(tensors), manifest.num_samples, manifest.num_classes
    if m < 2:
        tensors.check()  # raises what loading would
        raise TooFewModels(f"scoring needs at least 2 models, got {m}")
    env, mean_ent, mix_ent = _fold_models(tensors, n, c)
    cap = float(min(m, c))
    np.clip(env, 1.0, cap, out=env)
    return ScoreTable(
        sample_index=np.arange(n, dtype=np.int64),
        pds_env=env,
        pds_eq1=env / c,
        jsd_bits=np.clip(mix_ent - mean_ent, 0.0, math.log2(cap)),
        mean_entropy_bits=mean_ent,
        mixture_entropy_bits=mix_ent,
    )


def _fold_models(tensors: TensorFiles, n: int, c: int) -> tuple[np.ndarray, ...]:
    """Per sample: the sum over classes of the models' elementwise maximum,
    the mean model entropy and the mixture's entropy, in bits.  Each stripe
    of samples folds the models in, in sorted id order, as numpy reduces an
    (M, N, C) stack over its models: one after another, from +0.0, then
    divided by M.  So the scores are those of the whole stack, bit for bit.
    A stripe has as many samples as an ingest chunk has rows, so the working
    set grows with neither the number of samples nor of models."""
    m = len(tensors)
    rows = min(n, _chunk_rows(c))
    env, mix_ent = np.empty(n), np.empty(n)
    mean_ent = np.zeros(n)  # entropy sums, until divided by M
    top, mix, work = (np.empty((rows, c)) for _ in range(3))
    # numpy sums the M entropies of a lone sample pairwise, not in order
    ents = np.zeros((m, 1)) if n == 1 else None
    for lo, j, p in tensors.stripes(rows):
        b = p.shape[0]
        hi = lo + b
        t, s, w = top[:b], mix[:b], work[:b]
        if j == 0:
            np.copyto(t, p)
            np.copyto(s, p)
        else:
            np.maximum(t, p, out=t)
            s += p
        acc = mean_ent[lo:hi] if ents is None else ents[j]
        acc -= _plogp_sums(w, p)
        if j == m - 1:
            env[lo:hi] = t.sum(axis=1)
            s /= m
            mix_ent[lo:hi] = -_plogp_sums(w, s)
    if ents is not None:
        mean_ent[:] = ents.sum(axis=0)
    mean_ent /= m
    return env, mean_ent, mix_ent


def _plogp_sums(work: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row sums of p * log2(p), with 0 * log2(0) = 0, computed in ``work``
    as ``entropy_bits`` computes them: each is minus its row's entropy."""
    np.copyto(work, p)
    work[p == 0.0] = 1.0  # p is never negative, and log2(1.0) == 0.0
    np.log2(work, out=work)
    work *= p
    return work.sum(axis=1)


def write_scores_csv(table: ScoreTable, path: str | Path) -> None:
    lines = [CSV_HEADER]
    for i in range(len(table)):
        lines.append(
            f"{int(table.sample_index[i])},{table.pds_env[i]:.9g},{table.pds_eq1[i]:.9g},"
            f"{table.jsd_bits[i]:.9g},{table.mixture_entropy_bits[i]:.9g},"
            f"{table.mean_entropy_bits[i]:.9g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores_csv(path: str | Path) -> ScoreTable:
    """The table ``write_scores_csv`` wrote.  SchemaError unless every field
    parses, every score is finite and ``sample_index`` counts 0..n-1."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no such score table: {path}")
    lines = path.read_text(errors="replace").splitlines()  # bad bytes fail to parse
    if not lines or lines[0] != CSV_HEADER:
        raise SchemaError(f"{path}: bad score table header")
    n = len(lines) - 1
    cols = np.empty((5, n))
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 6:
            raise SchemaError(f"{path}:{i + 2}: expected 6 fields, got {len(parts)}")
        try:
            index = int(parts[0])
            cols[:, i] = [float(part) for part in parts[1:]]
        except (ValueError, OverflowError) as e:
            raise SchemaError(f"{path}:{i + 2}: field does not parse: {e}") from e
        if index != i:
            raise SchemaError(f"{path}:{i + 2}: sample_index must be {i}, got {index}")
    bad = np.flatnonzero(~np.isfinite(cols).all(axis=0))
    if bad.size:
        raise SchemaError(f"{path}:{bad[0] + 2}: non-finite score")
    return ScoreTable(
        sample_index=np.arange(n, dtype=np.int64),
        pds_env=cols[0],
        pds_eq1=cols[1],
        jsd_bits=cols[2],
        mixture_entropy_bits=cols[3],
        mean_entropy_bits=cols[4],
    )
