"""Critical values: quantile rule, asymptotic formulas, ALR limit law."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from sparsemix import (
    AlphaOutOfRange,
    CalibrationMethod,
    ConfigError,
    DomainError,
    IncompatibleMethod,
    InsufficientReplicates,
    NegativeQ,
    NonFinite,
    OutOfRange,
    StatisticKind,
    UnsupportedStatistic,
    alr_limit_cv,
    empirical_cv,
    evi_cv,
    evii_cv,
    null_statistics,
    quantile_index,
    simulate_null_distribution,
    size_table,
    stream_id_for,
    thresh_cv,
)
from sparsemix import calibration, engine
from sparsemix.calibration import (
    _bridge_coeffs,
    _cal1_rows,
    _cal1_task,
    _cal2_task,
    _limit_draws,
    _ln_rows,
)
from sparsemix.rng import DOMAIN_CAL1, DOMAIN_CAL2, GROUP_ROWS, U_FLOOR
from sparsemix.stats import _log1m_boundaries
from table_json import table_from_json

REL = 1e-12


def _generator(seed, domain, sub, idx):
    """numpy's own Generator(PCG64(SeedSequence((seed, id)))) of stream idx
    of (domain, sub), which holds rows idx * GROUP_ROWS onward."""
    seq = np.random.SeedSequence((seed, stream_id_for(domain, sub, idx)))
    return np.random.Generator(np.random.PCG64(seq))


def _cal2_generator(seed, idx):
    return _generator(seed, DOMAIN_CAL2, 0, idx)


def _cal2_uniforms(seed, idx, shape):
    """Uniforms from cal2 stream idx, as one block of the given shape."""
    return _cal2_generator(seed, idx).random(shape)


def _normals(u):
    """Standard normals by inverting uniforms, as the bridge once drew them."""
    return special.ndtri(np.fmax(u, U_FLOOR))


def _bridge_rows(n, grid_size, u):
    """Oracle: Brownian bridge values on the grid for each uniform row, by the
    sampler cal2 used before it drew ziggurat normals.

    Writing Y_j = B(t_j) / (1 - t_j), the exact conditional transitions
    collapse to Y_j = Y_{j-1} + c_j Z_j, so each path is one cumulative sum.
    """
    t, c, _, _ = _bridge_coeffs(n, grid_size)
    return np.cumsum(_normals(u) * c, axis=1) * (1.0 - t)


# ---------------------------------------------------------------------------
# quantile rule

def test_quantile_index_known_cases():
    assert quantile_index(19, 0.05) == 19
    assert quantile_index(99, 0.05) == 95
    assert quantile_index(100_000, 0.05) == 95_001
    assert quantile_index(19, 0.95) == 1
    assert quantile_index(10, 0.001) == 10  # capped at R


def test_quantile_index_decimal_alpha_is_exact():
    # float arithmetic puts ceil((1 - 0.95) * 20) at 2; the rule says 1
    assert math.ceil((1 - 0.95) * 20) == 2
    assert quantile_index(19, 0.95) == 1


def test_quantile_index_validation():
    with pytest.raises(AlphaOutOfRange):
        quantile_index(100, 0.0)
    with pytest.raises(AlphaOutOfRange):
        quantile_index(100, 1.0)
    with pytest.raises(InsufficientReplicates):
        quantile_index(0, 0.05)


# ---------------------------------------------------------------------------
# empirical calibration

def _null_sample(values, seed=0):
    """values as a float vector in shuffled order: empirical_cv takes any."""
    return np.random.default_rng(seed).permutation(np.asarray(values, dtype=float))


def test_empirical_cv_picks_exact_order_statistic():
    sample = _null_sample(np.arange(1.0, 201.0))
    assert empirical_cv(sample, 0.05) == 191.0
    assert empirical_cv(sample, 0.10) == 181.0
    assert empirical_cv(sample, 0.5) == 101.0


def test_empirical_cv_non_increasing_in_alpha():
    sample = _null_sample(np.random.default_rng(3).normal(size=500))
    cvs = [empirical_cv(sample, a) for a in (0.05, 0.1, 0.25, 0.5)]
    assert all(b <= a for a, b in zip(cvs, cvs[1:]))


def test_empirical_cv_sparse_tail_gate():
    sample = _null_sample(np.arange(19.0))  # small samples are representable
    assert sample.size == 19
    with pytest.raises(InsufficientReplicates):
        empirical_cv(sample, 0.05)


def test_null_sample_validation():
    with pytest.raises(OutOfRange):
        empirical_cv(_null_sample([]), 0.05)
    with pytest.raises(NonFinite):
        empirical_cv(_null_sample([0.0, float("nan")]), 0.05)
    with pytest.raises(OutOfRange):
        empirical_cv(_null_sample(np.zeros((2, 2))), 0.05)
    # order is free: a reversed vector gives the sorted vector's value
    values = np.arange(1.0, 201.0)
    assert empirical_cv(values[::-1], 0.05) == empirical_cv(values, 0.05) == 191.0


def test_simulate_null_distribution():
    with pytest.raises(InsufficientReplicates):
        simulate_null_distribution(StatisticKind.HC, 50, 99, 0)
    s = simulate_null_distribution(StatisticKind.HC, 50, 200, 7, threads=1)
    assert s.shape == (200,) and not s.flags.writeable
    assert np.all(np.diff(s) >= 0.0)
    again = simulate_null_distribution(StatisticKind.HC, 50, 200, 7, threads=1)
    assert np.array_equal(s, again)


def test_self_consistency_on_same_sample_is_exact():
    # without ties, the realized exceedance rate of the fitted cv is (R - k)/R
    s = simulate_null_distribution(StatisticKind.BJ, 40, 2000, 11, threads=1)
    cv = empirical_cv(s, 0.05)
    realized = float((s > cv).mean())
    k = quantile_index(2000, 0.05)
    assert realized == (2000 - k) / 2000


def test_fresh_sample_size_recovery():
    # calibrate on one seed, evaluate on another: realized size within 0.25pp
    n, reps = 100, 100_000
    fit = simulate_null_distribution(StatisticKind.HC, n, reps, 2024, threads=1)
    cv = empirical_cv(fit, 0.05)
    from sparsemix import null_statistics

    fresh = null_statistics(n, reps, 2025, (StatisticKind.HC,), threads=1)
    realized = float((fresh[StatisticKind.HC] > cv).mean())
    assert abs(realized - 0.05) < 0.0025


def _hc_cdf_n2(c):
    """Exact null CDF of HC at n = 2.  HC reads p_(1) alone, and HC > c
    exactly when p_(1) < b(c), the smaller root of
    (2 + c^2) p^2 - (2 + c^2) p + 1/2 = 0; so F(c) = (1 - b(c))^2."""
    b = 0.5 * (1.0 - c / math.sqrt(2.0 + c * c))
    return (1.0 - b) ** 2


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_empirical_cv_exact_oracle_at_n2(seed, alpha):
    # F at the k-th of R order statistics of the null is Beta(k, R + 1 - k);
    # the cv must lie inside its central 1 - 2e-6 interval
    reps = 100_000
    assert _hc_cdf_n2(4.27315) == pytest.approx(0.95, abs=1e-6)
    k = quantile_index(reps, alpha)
    cv = empirical_cv(simulate_null_distribution(StatisticKind.HC, 2, reps, seed), alpha)
    lo, hi = stats.beta.ppf([1e-6, 1.0 - 1e-6], k, reps + 1 - k)
    assert lo < _hc_cdf_n2(cv) < hi


def _cal1_tail(x):
    """Exact P(X > x), x > 1, of the cal1 limit law X = f(E)/2 + W/2 with
    E ~ Exp(1), f(E) = e^(E-1)/E below 1 and 1 above, W = exp((Z+)^2/2):
    the integral over E of e^-E G(2x - f(E)), G(w) = P(W > w), which is 1
    below w = 1 and erfc(sqrt(log w))/2 from there on.  f falls from
    infinity to 1 on (0, 1), so G jumps to 1/2 at the E0 where
    f(E0) = 2x - 1; the integral is split there, and the part below E0 is
    1 - e^-E0."""

    def f(e):
        return math.exp(e - 1.0) / e

    def g(w):
        return 0.5 * special.erfc(math.sqrt(math.log(w)))

    e0 = optimize.brentq(lambda e: f(e) - (2.0 * x - 1.0), 1e-12, 1.0)
    inner, _ = integrate.quad(lambda e: math.exp(-e) * g(2.0 * x - f(e)), e0, 1.0,
                              epsabs=1e-14, epsrel=1e-12)
    return -math.expm1(-e0) + inner + math.exp(-1.0) * g(2.0 * x - 1.0)


def test_cal1_exact_limit_law_quantiles():
    # the quantiles of the law itself, to 30 digits by mpmath
    for alpha, q in ((0.05, 6.0240853660), (0.1, 3.4089125726)):
        exact = optimize.brentq(lambda x: _cal1_tail(x) - alpha, 2.0, 20.0, xtol=1e-13)
        assert exact == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_alr_limit_cv_cal1_exact_oracle(seed, alpha):
    # as at n = 2: F at the k-th of R limit-law draws is Beta(k, R + 1 - k)
    reps = 100_000
    k = quantile_index(reps, alpha)
    cv = math.exp(alr_limit_cv(CalibrationMethod.CAL1, alpha, reps, seed, threads=1))
    lo, hi = stats.beta.ppf([1e-6, 1.0 - 1e-6], k, reps + 1 - k)
    assert lo < 1.0 - _cal1_tail(cv) < hi


@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_cal1_draws_follow_the_exact_limit_law(seed):
    # the DKW inequality with Massart's constant: sup |F_R - F| exceeds
    # sqrt(log(2 / delta) / (2R)) with probability at most delta = 1e-6
    reps = 200_000
    draws = np.sort(_limit_draws(CalibrationMethod.CAL1, reps, 0, 0, seed, 1))
    x = np.geomspace(1.02, 60.0, 40)
    empirical = np.searchsorted(draws, x, side="right") / reps
    exact = np.array([1.0 - _cal1_tail(v) for v in x])
    assert np.max(np.abs(empirical - exact)) <= math.sqrt(math.log(2e6) / (2 * reps))


# ---------------------------------------------------------------------------
# asymptotic critical values

def test_thresh_cv_frozen_values():
    assert thresh_cv(StatisticKind.BJ, 100) == pytest.approx(1.5271796258079011, rel=REL)
    assert thresh_cv(StatisticKind.HC, 100) == pytest.approx(1.7476725241348284, rel=REL)
    assert thresh_cv(StatisticKind.BJ, 10_000) == pytest.approx(2.2203268063678464, rel=REL)
    assert thresh_cv(StatisticKind.HC, 10_000) == pytest.approx(2.1072858403016172, rel=REL)
    assert thresh_cv(StatisticKind.BJ, 10**6) == pytest.approx(2.6257919144760108, rel=REL)
    assert thresh_cv(StatisticKind.HC, 10**6) == pytest.approx(2.2916334412274625, rel=REL)


def test_evi_cv_frozen_values():
    assert evi_cv(StatisticKind.BJ, 10**6, 0.05) == pytest.approx(
        4.813166306159509, rel=REL
    )
    assert evi_cv(StatisticKind.HC, 10**6, 0.05) == pytest.approx(
        3.102633173986093, rel=REL
    )


def test_evii_cv_frozen_values():
    assert evii_cv(StatisticKind.BJ, 10**6, 0.05) == pytest.approx(
        4.871511418289048, rel=REL
    )
    assert evii_cv(StatisticKind.HC, 10**6, 0.05) == pytest.approx(
        3.121381558953999, rel=REL
    )


def test_asymptotic_validation():
    with pytest.raises(UnsupportedStatistic):
        thresh_cv(StatisticKind.ALR, 1000)
    with pytest.raises(UnsupportedStatistic):
        evi_cv(StatisticKind.ALR, 1000, 0.05)
    with pytest.raises(DomainError):
        thresh_cv(StatisticKind.HC, 15)
    with pytest.raises(AlphaOutOfRange):
        evi_cv(StatisticKind.HC, 1000, 0.0)


@pytest.mark.parametrize("kind", [StatisticKind.HC, StatisticKind.BJ])
@pytest.mark.parametrize(
    "cv",
    [
        lambda kind: thresh_cv(kind, 1000),
        lambda kind: evi_cv(kind, 1000, 0.05),
        lambda kind: evii_cv(kind, 1000, 0.05),
    ],
    ids=["thresh", "evi", "evii"],
)
def test_asymptotic_cvs_read_string_kinds(cv, kind):
    assert cv(kind.value) == cv(kind)
    with pytest.raises(UnsupportedStatistic, match="cal1/cal2"):
        cv("alr")
    with pytest.raises(UnsupportedStatistic):
        cv("chi2")


def test_evi_hc_guards_negative_quantile():
    with pytest.raises(NegativeQ):
        evi_cv(StatisticKind.HC, 16, 0.9)
    # the BJ variant is the quantile itself; a negative value is meaningful
    assert evi_cv(StatisticKind.BJ, 16, 0.9) < 0.0


def test_evii_dominates_evi_for_bj():
    for n in (16, 100, 10_000, 10**6):
        for alpha in (0.01, 0.05, 0.1, 0.5):
            assert evii_cv(StatisticKind.BJ, n, alpha) > evi_cv(
                StatisticKind.BJ, n, alpha
            )


def test_asymptotic_cvs_decrease_in_alpha():
    for fn in (evi_cv, evii_cv):
        vals = [fn(StatisticKind.BJ, 10_000, a) for a in (0.01, 0.05, 0.1, 0.2)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# exact null laws of HC and BJ at n = 100, by boundary crossing

def _noncrossing(b, n):
    """P(U_(i) >= b_i for i = 1..len(b)) for n iid uniforms, b nondecreasing
    (Noe 1972): the law of N(b_i), the count of uniforms below b_i, which
    must stay below i.  Given j below b_(i-1), the other n - j are uniform
    above it, so N(b_i) - j ~ Bin(n - j, (b_i - b_(i-1)) / (1 - b_(i-1)))."""
    j = np.arange(len(b))
    law = np.zeros(len(b))
    law[0] = 1.0
    prev = 0.0
    for i, bi in enumerate(b, 1):
        law = law @ stats.binom.pmf(j - j[:, None], n - j[:, None], (bi - prev) / (1.0 - prev))
        law[i:] = 0.0
        prev = bi
    return law.sum()


def _hc_boundary(c, n):
    """b_i at which HC's term i equals c > 0: the smaller root of
    (n + c^2) p^2 - (2nt + c^2) p + nt^2, t = i/n, in a form free of
    cancellation."""
    t = np.arange(1, n // 2 + 1) / n
    return 2.0 * n * t * t / (2.0 * n * t + c * c + c * np.sqrt(c * c + 4.0 * n * t * (1.0 - t)))


def _bj_boundary(c, n):
    """b_i at which log LR_{n,i} equals c > 0: its root on (0, t), where it
    falls from infinity to 0, found in log p."""

    def log_lr(x, i):
        t = i / n
        return i * (math.log(t) - x) + (n - i) * (math.log1p(-t) - math.log1p(-math.exp(x)))

    return np.array([
        math.exp(optimize.brentq(lambda x: log_lr(x, i) - c, -700.0, math.log(i / n),
                                 xtol=1e-14))
        for i in range(1, n // 2 + 1)
    ])


def _exact_null_cdf(kind, c, n=100):
    """P(stat <= c) under the null: every term of the statistic is a
    decreasing function of its p_(i), so stat <= c exactly when p_(i) >= b_i
    for every i, and p_(i) is nondecreasing, so b may be its running
    maximum."""
    boundary = _hc_boundary if kind is StatisticKind.HC else _bj_boundary
    return _noncrossing(np.maximum.accumulate(boundary(c, n)), n)


@pytest.mark.parametrize("kind", [StatisticKind.HC, StatisticKind.BJ])
@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_package_boundaries_match_the_oracles(n, kind):
    # the boundaries that size tables at closed-form critical values cross,
    # in the sampler's domain log(1 - b), against the closed root and brentq
    oracle = _hc_boundary if kind is StatisticKind.HC else _bj_boundary
    cvs = sorted({
        calibration._closed_form_cv(method, kind, n, alpha)
        for method in calibration._CLOSED_FORMS
        for alpha in (0.05, 0.1)
    })
    got = -np.expm1(_log1m_boundaries(kind, cvs, n))
    for c, row in zip(cvs, got):
        np.testing.assert_allclose(row, oracle(c, n), rtol=1e-12, atol=0)


def test_exact_null_cdf_agrees_with_the_n2_form():
    assert _exact_null_cdf(StatisticKind.HC, 4.27315, n=2) == pytest.approx(
        _hc_cdf_n2(4.27315), rel=1e-12)


_EXACT_KINDS = [StatisticKind.HC, StatisticKind.BJ]


_ORACLE_SEEDS = [1, 5, 1729]


@pytest.fixture(scope="module")
def null_at_n100():
    """HC and BJ of 100_000 null replicates at n = 100, for each oracle seed."""
    return {seed: null_statistics(100, 100_000, seed, _EXACT_KINDS) for seed in _ORACLE_SEEDS}


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("seed", _ORACLE_SEEDS)
@pytest.mark.parametrize("kind", _EXACT_KINDS)
def test_empirical_cv_exact_oracle_at_n100(null_at_n100, kind, seed, alpha):
    # as at n = 2: F at the k-th of R null replicates is Beta(k, R + 1 - k)
    reps = 100_000
    k = quantile_index(reps, alpha)
    cv = empirical_cv(null_at_n100[seed][kind], alpha)
    lo, hi = stats.beta.ppf([1e-6, 1.0 - 1e-6], k, reps + 1 - k)
    assert lo < _exact_null_cdf(kind, cv) < hi


@pytest.mark.parametrize("seed", [1, 5, 1729])
def test_closed_form_sizes_exact_oracle_at_n100(seed):
    # each closed-form cell's rejection count is Bin(R, exact size); at n = 100
    # evi's BJ cv rejects 7.25% at alpha = 0.05
    reps = 100_000
    methods = [CalibrationMethod.THRESH, CalibrationMethod.EVI, CalibrationMethod.EVII]
    rows = size_table([100], _EXACT_KINDS, methods, [0.05, 0.1], reps, seed)
    assert len(rows) == 12
    for row in rows:
        cv = calibration._closed_form_cv(row.method, row.kind, 100, row.nominal_alpha)
        size = 1.0 - _exact_null_cdf(row.kind, cv)
        lo, hi = stats.binom.ppf([1e-6, 1.0 - 1e-6], reps, size)
        assert lo <= round(row.realized_size * reps) <= hi, row


def test_calibration_method_parse():
    assert CalibrationMethod(" EVI ") is CalibrationMethod.EVI
    assert CalibrationMethod("cal2") is CalibrationMethod.CAL2
    with pytest.raises(ConfigError):
        CalibrationMethod("bootstrap")


# ---------------------------------------------------------------------------
# the calibrate table reader

def test_table_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        table_from_json("not json")
    with pytest.raises(ConfigError):
        table_from_json("{}")
    with pytest.raises(ConfigError):
        table_from_json('{"kind": "hc", "n": "x"}')


# ---------------------------------------------------------------------------
# cal1 limit draws

def test_cal1_crafted_uniforms():
    # E = 0.5, Z = 1: 0.5 * e^{-0.5}/0.5 + 0.5 * e^{0.5}
    u, z = np.array([-math.expm1(-0.5), -math.expm1(-2.0)]), np.array([1.0, -1.0])
    assert _cal1_rows(u, z)[0] == pytest.approx(1.4308912950626975, rel=REL)
    # E = 2 >= 1 kills the first factor; Z < 0 truncates to zero
    assert _cal1_rows(u, z)[1] == pytest.approx(1.0, rel=REL)


def test_cal1_draws_at_least_one():
    vals = _cal1_task((5, 0, 500))
    assert vals.min() >= 1.0
    assert _cal1_task((5, 3, 1))[0] == vals[3]


# ---------------------------------------------------------------------------
# bridge functional

def test_bridge_grid_endpoints_exact():
    t, c, w, k = _bridge_coeffs(1000, 512)
    assert t[0] == 1e-3 and t[-1] == 0.5
    assert t.size == 513 and np.all(np.diff(t) > 0.0)
    assert np.all(c > 0.0) and np.all(k > 0.0)
    assert w.sum() == pytest.approx(math.log(500.0), rel=REL)


def test_zero_bridge_value_is_log_ratio():
    # zero normals: every bridge increment vanishes
    n, m = 10_000, 512
    ln = _ln_rows(n, m, np.zeros((1, m + 1)))[0]
    assert ln == pytest.approx(0.9247425010840047, rel=REL)
    assert ln == pytest.approx(math.log(n / 2.0) / math.log(n), rel=REL)


def _trapezoid_ln(n, m, b):
    """Oracle: L_n of bridge rows b by numpy's trapezoid rule in u = log t."""
    t, _, _, _ = _bridge_coeffs(n, m)
    bp = np.fmax(b, 0.0)
    integrand = np.exp(bp * bp / (2.0 * t * (1.0 - t)))
    return np.trapezoid(integrand, np.log(t), axis=1) / math.log(n)


def test_ln_functional_matches_sample_ln():
    n, m = 4096, 512
    u = _cal2_uniforms(21, 9, (8, m + 1))
    oracle = _trapezoid_ln(n, m, _bridge_rows(n, m, u))
    np.testing.assert_allclose(_ln_rows(n, m, _normals(u)), oracle, rtol=1e-9)


def test_sample_ln_lower_bound_and_determinism():
    n, m = 1024, 256
    z = _normals(_cal2_uniforms(2, 0, (200, m + 1)))
    vals = _ln_rows(n, m, z)
    assert vals.min() >= math.log(n / 2.0) / math.log(n)
    assert _ln_rows(n, m, z[7:8])[0] == vals[7]


def test_bridge_args_validation(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before refusing the bridge arguments")

    monkeypatch.setattr(engine, "simulate", no_simulation)

    def cal2(n_for_l, grid_size):
        return alr_limit_cv(
            CalibrationMethod.CAL2, 0.1, 10_000, 0,
            n_for_l=n_for_l, grid_size=grid_size, threads=1,
        )

    with pytest.raises(DomainError):
        cal2(15, 512)
    with pytest.raises(DomainError):
        cal2(100, 255)


def test_bridge_marginal_variance():
    # B(t) ~ N(0, t(1-t)): check the sampled variance on a coarse grid
    n, m, draws = 256, 256, 4000
    u = _cal2_uniforms(31, 0, (draws, m + 1))
    b = _bridge_rows(n, m, u)
    t, _, _, _ = _bridge_coeffs(n, m)
    for idx in (0, m // 2, m):
        sd = math.sqrt(t[idx] * (1.0 - t[idx]))
        sample_sd = float(b[:, idx].std())
        assert abs(sample_sd - sd) < 6.0 * sd / math.sqrt(draws)


def test_ln_median_drifts_slowly_across_decades():
    # the law of L_n stabilizes: medians move < 30% per decade of n
    meds = []
    for n in (100, 1000, 10_000, 100_000, 1_000_000):
        z = _normals(_cal2_uniforms(17, 0, (400, 513)))
        meds.append(float(np.median(_ln_rows(n, 512, z))))
    for a, b in zip(meds, meds[1:]):
        assert abs(b - a) / a < 0.30


def test_grid_doubling_shifts_mean_under_two_percent():
    # common random numbers: the coarse path is the fine path at even indexes
    n, m, draws = 10_000, 2048, 3000
    u = _cal2_uniforms(23, 0, (draws, 2 * m + 1))
    fine = _ln_rows(n, 2 * m, _normals(u))
    b = _bridge_rows(n, 2 * m, u)
    t, _, _, _ = _bridge_coeffs(n, 2 * m)
    bc = np.fmax(b[:, ::2], 0.0)
    tc = t[::2]
    integrand = np.exp(bc * bc / (2.0 * tc * (1.0 - tc)))
    coarse = np.trapezoid(integrand, np.log(tc), axis=1) / math.log(n)
    change = abs(fine.mean() - coarse.mean()) / coarse.mean()
    assert change < 0.02


# ---------------------------------------------------------------------------
# limit-law critical values

def test_alr_limit_cv_deterministic_and_log_domain():
    v = alr_limit_cv(CalibrationMethod.CAL1, 0.1, 10_000, 42, threads=1)
    assert v == alr_limit_cv(CalibrationMethod.CAL1, 0.1, 10_000, 42, threads=1)
    assert v > 0.0  # raw draws are >= 1, so the log cv is nonnegative
    draws = _limit_draws(CalibrationMethod.CAL1, 10_000, 0, 0, 42, 1)
    assert v == math.log(np.sort(draws)[quantile_index(10_000, 0.1) - 1])


def test_alr_limit_cv_refuses_a_non_finite_draw(monkeypatch):
    # the cv is empirical_cv of the draws, which refuses a non-finite one
    def task(args):
        draws = _cal1_task(args)
        draws[0] = np.inf
        return draws

    monkeypatch.setattr(calibration, "_cal1_task", task)
    with pytest.raises(NonFinite):
        alr_limit_cv(CalibrationMethod.CAL1, 0.1, 10_000, 42, threads=1)


def test_alr_limit_cv_cal2_runs_small():
    v = alr_limit_cv(
        CalibrationMethod.CAL2, 0.1, 10_000, 3, n_for_l=1000, grid_size=256, threads=1
    )
    assert math.isfinite(v) and v > 0.0


def test_cal2_draw_composition():
    # one draw = exponential factor plus half the bridge functional, from
    # numpy alone: row j is uniform k = j % GROUP_ROWS of stream
    # j // GROUP_ROWS of (DOMAIN_CAL2, 0), and normals [k (m + 1),
    # (k + 1) (m + 1)) of that stream of (DOMAIN_CAL2, 1)
    n, m, seed = 1024, 256, 13
    for j in (0, 4, GROUP_ROWS + 4):
        direct = _cal2_task((seed, n, m, j, 1))[0]
        group, k = divmod(j, GROUP_ROWS)
        u0 = _generator(seed, DOMAIN_CAL2, 0, group).random(k + 1)[k]
        z = _generator(seed, DOMAIN_CAL2, 1, group).standard_normal((k + 1) * (m + 1))
        z = z[k * (m + 1) :]
        e = -math.log1p(-max(u0, U_FLOOR))
        factor = math.exp(e - 1.0) / e if e < 1.0 else 1.0
        ln = _ln_rows(n, m, z[None, :])[0]
        assert direct == pytest.approx(0.5 * factor + 0.5 * ln, rel=1e-12), j


def test_cal2_tasks_started_mid_group_equal_the_rows_from_its_start():
    # a task that starts mid-group draws the group's earlier rows and
    # discards them: its rows equal those of a task from row 0, bitwise
    whole = _cal2_task((7, 1000, 256, 0, 2 * GROUP_ROWS + 10))
    for start, count in ((3, 5), (GROUP_ROWS - 6, 12), (GROUP_ROWS, 1),
                         (GROUP_ROWS + 1, GROUP_ROWS + 9), (2 * GROUP_ROWS - 1, 1)):
        part = _cal2_task((7, 1000, 256, start, count))
        assert np.array_equal(part, whole[start : start + count]), (start, count)


def _task_bridges(monkeypatch, args):
    """The normals that _cal2_task(args) feeds _ln_rows, and its L_n draws."""
    normals, lns = [], []
    ln_rows = calibration._ln_rows

    def recorded(n, grid_size, z, out=None):
        normals.append(z.copy())
        lns.append(ln_rows(n, grid_size, z, out=out))
        return lns[-1]

    monkeypatch.setattr(calibration, "_ln_rows", recorded)
    _cal2_task(args)
    return np.vstack(normals), np.concatenate(lns)


def test_ln_law_matches_the_inversion_sampler(monkeypatch):
    # two independent samples: the task's ziggurat normals, and the inverted
    # uniforms of a stream of another seed
    n, m, draws = 1000, 256, 4000
    _, new = _task_bridges(monkeypatch, (42, n, m, 0, draws))
    old = _trapezoid_ln(n, m, _bridge_rows(n, m, _cal2_uniforms(41, 0, (draws, m + 1))))
    assert new.shape == old.shape == (draws,)
    assert stats.ks_2samp(old, new).pvalue > 1e-3


def test_bridge_increments_are_standard_normal(monkeypatch):
    # undo the cumulative sum of a task's bridges: the increments are N(0, 1)
    n, m = 1000, 256
    z, _ = _task_bridges(monkeypatch, (43, n, m, 0, 4000))
    _, c, _, _ = _bridge_coeffs(n, m)
    y = np.cumsum(z * c, axis=1)
    increments = np.diff(y, axis=1, prepend=0.0) / c
    assert increments.shape == (4000, m + 1)
    assert stats.kstest(increments.ravel(), "norm").pvalue > 1e-3


def test_cal2_draws_do_not_depend_on_the_thread_count():
    runs = []
    for threads in (1, 2, 0):
        cv = alr_limit_cv(
            CalibrationMethod.CAL2, 0.1, 10_000, 19,
            n_for_l=1000, grid_size=256, threads=threads,
        )
        runs.append((cv, _limit_draws(CalibrationMethod.CAL2, 10_000, 1000, 256, 19, threads)))
    for cv, draws in runs[1:]:
        assert cv == runs[0][0]
        assert np.array_equal(draws, runs[0][1])


def test_cal1_task_reads_its_rows_from_the_group_streams(monkeypatch):
    # rows 0..999 take E from the first 256 uniforms of each of streams 0..3
    # of (DOMAIN_CAL1, 0), and Z from the first 256 normals of those of
    # (DOMAIN_CAL1, 1), in blocks of 4096 rows or of 7
    u = np.concatenate(
        [_generator(1729, DOMAIN_CAL1, 0, g).random(GROUP_ROWS) for g in range(4)])[:1000]
    z = np.concatenate(
        [_generator(1729, DOMAIN_CAL1, 1, g).standard_normal(GROUP_ROWS) for g in range(4)])[:1000]
    for _ in range(2):
        assert np.array_equal(_cal1_task((1729, 0, 1000)), _cal1_rows(u, z))
        assert np.array_equal(_cal1_task((1729, 300, 700)), _cal1_rows(u[300:], z[300:]))
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * calibration._CAL1_ROW_ELEMENTS)


def test_limit_task_draws_are_pinned():
    # SHA-256 of the task outputs in the layout of 256-row stream groups,
    # with E and the ziggurat normals on streams of their own (numpy 2.4.6):
    # a change to the stream layout, the draws or the limit-law arithmetic
    # shows here.
    cal1 = calibration._cal1_task((1729, 0, 5000))
    cal2 = _cal2_task((1729, 1000, 256, 0, 64))
    assert (cal1.shape, cal2.shape) == ((5000,), (64,))
    assert hashlib.sha256(cal1.tobytes()).hexdigest() == (
        "c80cd038e0ade8c70d211e22bb2b33a9e999a5c485784a39b9db54f866cbc998"
    )
    assert hashlib.sha256(cal2.tobytes()).hexdigest() == (
        "ac6cd8b75ff3bb2a9643ce9634699013ceb772d3bd021105fc7a706b1ed94745"
    )


def test_alr_limit_cv_validation():
    with pytest.raises(IncompatibleMethod):
        alr_limit_cv(CalibrationMethod.THRESH, 0.05, 10_000, 0)
    with pytest.raises(InsufficientReplicates):
        alr_limit_cv(CalibrationMethod.CAL1, 0.05, 5000, 0)
    with pytest.raises(InsufficientReplicates):
        alr_limit_cv(CalibrationMethod.CAL1, 0.0001, 10_000, 0)
    with pytest.raises(DomainError):
        alr_limit_cv(CalibrationMethod.CAL2, 0.05, 10_000, 0, n_for_l=8)
    with pytest.raises(DomainError):
        alr_limit_cv(CalibrationMethod.CAL2, 0.05, 10_000, 0, grid_size=64)
    with pytest.raises(AlphaOutOfRange):
        alr_limit_cv(CalibrationMethod.CAL1, 1.5, 10_000, 0)


@pytest.mark.parametrize(
    "variant,reps,n_for_l,grid_size",
    [
        (CalibrationMethod.CAL1, 20_000, 0, 0),
        (CalibrationMethod.CAL2, 10_000, 1000, 256),
    ],
)
def test_limit_draws_do_not_depend_on_the_task_split(variant, reps, n_for_l, grid_size):
    args = (variant, reps, n_for_l, grid_size, 11)
    runs = []
    for threads in (1, 2, 5):  # 5 workers: 5 tasks, more than the cores
        runs.append(_limit_draws(*args, threads))
    if variant is CalibrationMethod.CAL1:
        task, params = calibration._cal1_task, (11,)
    else:
        task, params = calibration._cal2_task, (11, n_for_l, grid_size)
    # 7 rows a task, joined in this process in row order
    tasks = [task((*params, s, min(7, reps - s))) for s in range(0, reps, 7)]
    runs.append(np.concatenate(tasks))
    assert runs[0].shape == (reps,)
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)
