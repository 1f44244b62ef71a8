"""Brute-force oracles for the paper's two claims about the disagreement
scores, which the tests check on randomized stacks:

* the divergence ``jsd_bits`` equals the mutual information between a
  uniformly drawn model index and its sampled prediction
  (``mutual_information_bruteforce``);
* the divergence is sandwiched between a quadratic and a linear function of
  ``pds_env - 1``, via total-variation and spread/envelope bounds
  (``check_sandwich``).

``kmedoids_objective`` is the k-medoids cost that the selection tests
compare against exhaustive search.  No command calls any of these, so they
live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from disco.errors import DiscoError, InvalidDistribution, LengthMismatch
from disco.scoring import _ROW_TOL, as_stack, jsd, pds

BOUND_SLACK = 1e-9


class NonZeroSum(DiscoError):
    pass


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


def kmedoids_objective(embeddings: np.ndarray, indices: Sequence[int]) -> float:
    """Sum over points of the Euclidean distance to the closest medoid."""
    x = np.asarray(embeddings, dtype=np.float64)
    med = x[np.asarray(indices, dtype=np.int64)]
    diff = x[:, None, :] - med[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).min(axis=1).sum())
