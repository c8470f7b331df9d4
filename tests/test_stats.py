"""Sample summaries, the regularized incomplete beta, and the paired t-test."""

import math

import numpy as np
import pytest

from vaxnet import mean_std, paired_t_test, regularized_incomplete_beta, t_cdf

import oracles


# -- mean / std ---------------------------------------------------------------


def test_mean_std_constant():
    assert mean_std([5.0, 5.0, 5.0]) == (5.0, 0.0)


def test_mean_std_textbook_sample():
    m, s = mean_std([2, 4, 4, 4, 5, 5, 7, 9])
    assert m == 5.0
    assert s == pytest.approx(math.sqrt(32 / 7), abs=1e-12)


def test_mean_std_single_value():
    assert mean_std([3.5]) == (3.5, 0.0)


def test_mean_std_empty_rejected():
    with pytest.raises(ValueError):
        mean_std([])


def test_mean_std_matches_numpy():
    rng = np.random.default_rng(40)
    for _ in range(20):
        xs = rng.normal(size=int(rng.integers(2, 50)))
        m, s = mean_std(xs)
        assert m == pytest.approx(float(xs.mean()), abs=1e-12)
        assert s == pytest.approx(float(xs.std(ddof=1)), abs=1e-12)


# -- incomplete beta and t CDF -----------------------------------------------------


def test_incomplete_beta_endpoints():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_incomplete_beta_uniform_case():
    # I_x(1, 1) is the identity
    for x in (0.1, 0.25, 0.8):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_incomplete_beta_symmetry():
    for a, b, x in ((2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.45)):
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_incomplete_beta_domain():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 2.0, 1.5)


def test_t_cdf_center():
    for df in (1, 2, 5, 30):
        assert t_cdf(0.0, df) == 0.5


def test_t_cdf_cauchy_quartile():
    # df=1 is Cauchy: F(1) = 3/4
    assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)


def test_t_cdf_symmetry():
    for df in (1, 3, 7, 20):
        for t in (0.3, 1.0, 2.5, 6.0):
            assert t_cdf(t, df) + t_cdf(-t, df) == pytest.approx(1.0, abs=1e-12)


def test_t_cdf_monotone():
    grid = np.linspace(-8, 8, 81)
    for df in (1, 4, 15):
        vals = [t_cdf(float(t), df) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_t_cdf_normal_limit():
    assert t_cdf(1.96, 10**6) == pytest.approx(0.9750019656729971, abs=1e-6)


def test_t_cdf_infinite_argument():
    assert t_cdf(math.inf, 5) == 1.0
    assert t_cdf(-math.inf, 5) == 0.0


@pytest.mark.parametrize("df", [1, 2, 3, 30])
@pytest.mark.parametrize("t, want", [(0.0, 0.5), (-0.0, 0.5), (math.inf, 1.0),
                                     (-math.inf, 0.0), (1e200, 1.0), (-1e200, 0.0)])
def test_t_cdf_at_zero_infinity_and_an_overflowing_square(t, want, df):
    # x = df / (df + t**2) is exactly 1.0 at t = 0 and 0.0 where t**2 is
    # infinite, and the incomplete beta is exact at both ends
    got = t_cdf(t, df)
    assert type(got) is float and got == want


def test_t_cdf_matches_quadrature():
    for df in (1, 2, 3, 5, 9, 17, 33, 50):
        for t in (-9.5, -3.0, -1.2, -0.2, 0.4, 1.7, 4.4, 8.8):
            want = oracles.t_cdf_quadrature(t, df)
            assert t_cdf(t, df) == pytest.approx(want, abs=1e-8)


def test_t_cdf_df_validation():
    with pytest.raises(ValueError):
        t_cdf(1.0, 0)


# -- paired t-test ---------------------------------------------------------------------


def test_paired_identical_samples():
    res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.t_stat == 0.0
    assert res.p_value == 1.0
    assert not res.significant


def test_paired_constant_shift_is_certain():
    res = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert res.p_value == 0.0
    assert res.t_stat == math.inf
    assert res.significant


@pytest.mark.parametrize("shift, alternative, t_stat, p_value", [
    (1.5, "two-sided", math.inf, 0.0), (1.5, "greater", math.inf, 0.0),
    (1.5, "less", math.inf, 1.0), (-1.5, "two-sided", -math.inf, 0.0),
    (-1.5, "greater", -math.inf, 1.0), (-1.5, "less", -math.inf, 0.0),
    (0.0, "two-sided", 0.0, 1.0), (0.0, "greater", 0.0, 1.0), (0.0, "less", 0.0, 1.0)])
def test_paired_zero_spread_verdicts(shift, alternative, t_stat, p_value):
    b = [1.0, 2.0, 4.0, 8.0]
    res = paired_t_test([x + shift for x in b], b, alternative=alternative)
    assert (res.t_stat, res.df, res.p_value) == (t_stat, 3, p_value)
    assert math.copysign(1.0, res.t_stat) == math.copysign(1.0, t_stat)
    assert type(res.t_stat) is float and type(res.p_value) is float
    assert res.significant is (p_value == 0.0)


def test_paired_known_value():
    # differences with mean 1 and sample std exactly 1: t = sqrt(10), and
    # the two-sided p agrees with quadrature of the density
    a = math.sqrt(4.5)
    d = [1.0] * 8 + [1.0 + a, 1.0 - a]
    res = paired_t_test(d, [0.0] * 10)
    assert res.t_stat == pytest.approx(math.sqrt(10), abs=1e-12)
    assert res.df == 9
    assert res.p_value == pytest.approx(0.011507985165945644, abs=1e-9)
    assert res.significant


def test_paired_order_flip_negates_t():
    rng = np.random.default_rng(41)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    r1 = paired_t_test(a, b)
    r2 = paired_t_test(b, a)
    assert r1.t_stat == pytest.approx(-r2.t_stat, abs=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)


def test_paired_one_sided():
    a = [1.1, 1.3, 0.9, 1.6, 1.2]
    b = [0.2, 0.5, 0.1, 0.4, 0.3]
    two = paired_t_test(a, b)
    greater = paired_t_test(a, b, alternative="greater")
    less = paired_t_test(a, b, alternative="less")
    assert greater.p_value == pytest.approx(two.p_value / 2, abs=1e-12)
    assert less.p_value == pytest.approx(1.0 - two.p_value / 2, abs=1e-12)


@pytest.mark.parametrize("a", [[10.0, 10.001, 10.002, 10.0015, 10.0005, 10.0012],
                               [1.0, 1.1, 1.2, 1.15, 1.05, 1.12]])
@pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
def test_paired_tails_match_scipy_at_large_t(a, alternative):
    # t = +-34416 and +-38: a tail near 1e-22 or 1e-7 must not be taken as
    # 1 - (1 - tail), which rounds it to 0 or loses its last digits.
    from scipy.stats import ttest_rel
    zeros = [0.0] * len(a)
    for x, y in ((a, zeros), (zeros, a)):
        res = paired_t_test(x, y, alternative=alternative)
        want = ttest_rel(x, y, alternative=alternative)
        assert res.t_stat == pytest.approx(want.statistic, rel=1e-12)
        assert res.p_value == pytest.approx(want.pvalue, rel=1e-12, abs=0.0)


def test_paired_no_signal_large_p():
    rng = np.random.default_rng(42)
    sig = 0
    for _ in range(50):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        if paired_t_test(a, b).significant:
            sig += 1
    # at alpha=0.05, false positives should be rare
    assert sig <= 8


def test_paired_detects_real_shift():
    rng = np.random.default_rng(43)
    for _ in range(20):
        base = rng.normal(size=15)
        res = paired_t_test(base + 2.0, base + rng.normal(scale=0.2, size=15))
        assert res.significant


def test_paired_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0], alternative="sideways")
