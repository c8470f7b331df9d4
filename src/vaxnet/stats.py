"""Sample summaries and the paired Student's t-test.

The t distribution CDF is evaluated through the regularized incomplete
beta function, computed with a Lentz-style continued fraction. No
statistics library is involved, so results are identical across platforms
with the same floating-point semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_CF_ITER = 300
_CF_EPS = 1e-15
_TINY = 1e-300


@dataclass(frozen=True)
class TestResult:
    t_stat: float
    df: int
    p_value: float
    significant: bool
    alternative: str
    alpha: float


def mean_std(xs) -> tuple[float, float]:
    """Sample mean and unbiased (ddof=1) standard deviation.

    A single observation has zero spread by convention here, so callers
    can format `mean +- std` without special cases.
    """
    arr = np.asarray(xs, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("need at least one observation")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz iteration.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        # The even and the odd step of term m.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: int) -> float:
    """CDF of Student's t with `df` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be at least 1")
    t = float(t)
    if math.isnan(t):
        raise ValueError("t must be a number")
    # x is exactly 1.0 at t = 0 and 0.0 where t * t overflows, and the
    # incomplete beta is exact there: the CDF is 0.5, 0.0 or 1.0
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def paired_t_test(a, b, alternative: str = "two-sided",
                  alpha: float = 0.05) -> TestResult:
    """Paired t-test on matched samples.

    `alternative` is "two-sided", "less" (mean of a - b below zero), or
    "greater". Differences with zero spread get t = 0 and p = 1 when
    their mean is zero, and otherwise t = +-inf and p = 0 or 1 by the
    alternative, so perfectly deterministic comparisons still produce a
    usable verdict.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError("samples must have equal length")
    if a.size < 2:
        raise ValueError("need at least two pairs")
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError("alternative must be 'two-sided', 'less', or 'greater'")
    d = a - b
    n = d.size
    df = n - 1
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0 and mean == 0.0:
        return TestResult(0.0, df, 1.0, 1.0 <= alpha, alternative, alpha)
    # zero spread with a nonzero mean: t is infinite and its tail exactly 0.0
    t_stat = mean / (sd / math.sqrt(n)) if sd else math.copysign(math.inf, mean)
    # Each alternative from the lower tail at -|t|: 1 - t_cdf(t) for a
    # large t would round a tiny tail to 0.
    tail = t_cdf(-abs(t_stat), df)
    if alternative == "two-sided":
        p = 2.0 * tail
    elif (alternative == "greater") == (t_stat > 0):
        p = tail
    else:
        p = 1.0 - tail
    p = min(max(p, 0.0), 1.0)
    return TestResult(float(t_stat), df, float(p), p <= alpha, alternative, alpha)
