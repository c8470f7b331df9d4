"""Largest adjacency eigenvalue and the epidemic-threshold checks built on it.

The dominant eigenvalue of the adjacency matrix controls whether an
infection with per-contact rate beta and recovery rate delta dies out:
containment requires beta / delta <= 1 / lambda_max. It also sits between
the average and maximum degree, which gives a cheap sanity bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import EmptyGraphError, Graph


@dataclass(frozen=True)
class SpectralResult:
    lambda_max: float
    iterations: int
    residual: float
    converged: bool
    # Unit-norm iterate whose residual was measured (zeros without edges).
    vector: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class SirRates:
    """Per-contact infection rate and recovery rate, both per day."""
    beta: float
    delta: float

    def __post_init__(self):
        if not (self.beta >= 0.0):
            raise ValueError("beta must be non-negative")
        if not (self.delta > 0.0):
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class ThresholdReport:
    ratio: float          # beta / delta
    inv_lambda: float     # 1 / lambda_max (inf when lambda_max == 0)
    contained: bool       # ratio <= inv_lambda
    margin: float         # inv_lambda - ratio


@dataclass(frozen=True)
class BoundsReport:
    deg_avg: float
    lambda_max: float
    deg_max: float
    holds: bool


def _start_vector(n: int) -> np.ndarray:
    # Strictly positive with a fixed aperiodic ripple so the start is never
    # orthogonal to the dominant eigenspace and runs are reproducible.
    v = 1.0 + 1e-9 * (np.arange(n) % 13)
    return v / np.linalg.norm(v)


def lambda_max(g: Graph, tol: float = 1e-9, max_iter: int = 50_000) -> SpectralResult:
    """Dominant adjacency eigenpair by shifted power iteration.

    Iterates on A + I: the shift separates +lambda from -lambda on
    bipartite graphs, where plain power iteration oscillates. The residual
    reported is ||A x - lambda x||_inf / max(1, lambda) for the returned
    vector x. Disconnected graphs converge to the largest eigenvalue over
    all components. `tol` must be positive and `max_iter` at least 1.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if g.n == 0 or g.m == 0:
        return SpectralResult(0.0, 0, 0.0, True, np.zeros(g.n))
    v = _start_vector(g.n)
    lam = 0.0
    resid = math.inf
    gap = np.empty(g.n)   # |y - lam v|, reused by every iteration
    for it in range(1, max_iter + 1):
        y = g.matvec(v)
        lam = float(v @ y)
        np.multiply(lam, v, out=gap)
        np.subtract(y, gap, out=gap)
        resid = float(np.max(np.abs(gap, out=gap))) / max(1.0, lam)
        if resid < tol:
            return SpectralResult(lam, it, resid, True, v)
        y += v   # matvec's fresh output becomes the next iterate
        y /= np.linalg.norm(y)
        v = y
    return SpectralResult(lam, max_iter, resid, False, v)


def threshold_check(rates: SirRates, lam: float) -> ThresholdReport:
    """Evaluate the containment condition beta/delta <= 1/lambda_max."""
    if lam < 0.0:
        raise ValueError("lambda_max must be non-negative")
    ratio = rates.beta / rates.delta
    inv = math.inf if lam == 0.0 else 1.0 / lam
    return ThresholdReport(ratio, inv, ratio <= inv, inv - ratio)


def spectral_bounds_check(g: Graph, lam: float) -> BoundsReport:
    """Verify deg_avg <= lam <= deg_max on a graph with edges, where `lam`
    is the graph's dominant eigenvalue as `lambda_max` returns it."""
    if g.n == 0 or g.m == 0:
        raise EmptyGraphError("degree bounds need at least one edge")
    d = g.degrees
    deg_avg = float(d.mean())
    deg_max = float(d.max())
    eps = 1e-7 * max(1.0, deg_max)
    holds = (deg_avg <= lam + eps) and (lam <= deg_max + eps)
    return BoundsReport(deg_avg, lam, deg_max, holds)
