"""Statistic kernels: frozen high-precision values, edge cases, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from sparsemix import (
    EmptyOrSingleton,
    NonFinite,
    OutOfRange,
    SampleTooSmall,
    SortedPValues,
    StatisticKind,
    UnsupportedStatistic,
    bj_plus,
    hc_star,
    log_alr,
    prepare,
    supported_kinds,
)
from sparsemix.stats import (
    P_MAX,
    P_MIN,
    _alr_log_weights,
    _columns,
    _hc_rows,
    _log_alr_rows,
    _log_lr_rows,
    _row_stats,
)

REL = 1e-12


def _log_lr_term(n, i, p):
    """Oracle: the one-sided binomial log LR at index i, written out in scalars.

    log LR_{n,i} = [i log(i/(n p)) + (n-i) log((1 - i/n)/(1 - p))] 1{p < i/n},
    floored at zero.
    """
    t = i / n
    if not p < t:
        return 0.0
    return max(i * math.log(i / (n * p)) + (n - i) * (math.log1p(-t) - math.log1p(-p)), 0.0)


def _lr_at(n, i, p):
    """_log_lr_rows at index i of an (1, m) row holding p at every index."""
    m = n // 2
    return float(_log_lr_rows(np.full((1, m), p), n)[0, i - 1])


# ---------------------------------------------------------------------------
# frozen values (mpmath, 50 decimal digits, evaluated on the binary doubles)

def test_log_lr_term_frozen_values():
    assert _lr_at(4, 1, 0.1) == pytest.approx(0.36932606149229115, rel=REL)
    assert _lr_at(4, 2, 0.3) == pytest.approx(0.34870677428955555, rel=REL)


def test_hc_star_frozen_values():
    s = prepare([0.1, 0.3, 0.6, 0.9])
    # the double 0.1 is slightly above 1/10, so this is just below 1
    assert hc_star(s) == pytest.approx(0.9999999999999999, rel=REL)
    # all lower-half order statistics above i/n: negative maximum
    s2 = prepare([0.5, 0.6, 0.7, 0.8])
    assert hc_star(s2) == pytest.approx(-0.4082482904638629, rel=REL)


def test_bj_plus_frozen_value():
    assert bj_plus(prepare([0.1, 0.9])) == pytest.approx(1.0216512475319813, rel=REL)


def test_log_alr_frozen_values():
    s = prepare([0.1, 0.3, 0.6, 0.9])
    assert log_alr(s) == pytest.approx(0.6703782616820364, rel=REL)
    tie = prepare([0.9] * 8)
    assert log_alr(tie) == pytest.approx(0.05093432499146794, rel=REL)


# ---------------------------------------------------------------------------
# log LR term edge cases

def test_log_lr_term_indicator_off_is_exact_zero():
    assert _lr_at(10, 5, 0.5) == 0.0  # p == i/n
    assert _lr_at(10, 5, 0.7) == 0.0  # p > i/n


def test_log_lr_term_nonnegative_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        m = n // 2
        p = np.sort(rng.uniform(1e-12, 1.0 - 1e-12, size=(4, m)), axis=1)
        assert np.all(_log_lr_rows(p, n) >= 0.0)


# ---------------------------------------------------------------------------
# in-place kernels against their out-of-place expressions

def _hc_out_of_place(pm, n, t):
    return (math.sqrt(n) * (t - pm) / np.sqrt(pm * (1.0 - pm))).max(axis=1)


def _log_lr_out_of_place(pm, n, t, log1m=None):
    i = t * n
    log1m = np.log1p(-pm) if log1m is None else log1m
    ell = i * (np.log(t) - np.log(pm)) + (n - i) * (np.log1p(-t) - log1m)
    return np.fmax(np.where(pm >= t, 0.0, ell), 0.0)


def _log_alr_out_of_place(ell, n):
    x = ell + _alr_log_weights(n)
    top = x.max(axis=1)
    return top + np.log(np.exp(x - top[:, None]).sum(axis=1))


def _edge_matrix(n, rows=6):
    """Sorted clamped rows at sample size n: uniform rows, a row with P_MIN
    entries, a row ending in P_MAX, and a row with p_(i) >= i/n everywhere."""
    rng = np.random.default_rng(n)
    p = rng.random((rows, n))
    p[1, : max(1, n // 4)] = P_MIN
    p[2, -2:] = P_MAX
    p[3] = np.linspace(0.5, 1.0, n)
    return np.sort(np.clip(p, P_MIN, P_MAX), axis=1)


def _stale(rows, m):
    """Kernel buffers of `rows` rows holding values no kernel may read."""
    return np.full((rows, m), np.nan), np.full((rows, m), -7.0), np.ones((rows, m), bool)


@pytest.mark.parametrize("n", [4, 5, 9, 100, 1001, 10_000])
def test_kernels_equal_their_out_of_place_expressions(n):
    m = n // 2
    p = _edge_matrix(n)
    pm, t = p[:, :m], np.arange(1, m + 1) / n
    assert np.all(pm[3] >= t)
    hc, ell = _hc_out_of_place(pm, n, t), _log_lr_out_of_place(pm, n, t)
    alr = _log_alr_out_of_place(ell, n)
    assert np.all(np.isfinite(hc)) and np.all(np.isfinite(alr))
    assert not ell[3].any()
    # log(1 - p) as a sampler hands it over: log1p(-p) itself, which must
    # give the L-free call bitwise, and the same moved by an ulp, which the
    # kernel must read instead of forming its own
    log1m = np.log1p(-pm)
    nudged = np.nextafter(log1m, -np.inf)
    assert np.array_equal(_log_lr_out_of_place(pm, n, t, log1m), ell)

    assert np.array_equal(_hc_rows(pm, n), hc)
    assert np.array_equal(_log_lr_rows(pm, n), ell)
    assert np.array_equal(_log_lr_rows(pm, n, log1m.copy()), ell)
    assert np.array_equal(_log_lr_rows(pm, n, nudged.copy()),
                          _log_lr_out_of_place(pm, n, t, nudged))
    assert np.array_equal(_log_alr_rows(ell, n), alr)
    a, b, mask = _stale(len(p), m)
    assert np.array_equal(_hc_rows(pm, n, a, b), hc)
    for given in (None, log1m.copy()):
        a, b, mask = _stale(len(p), m)
        got = _log_lr_rows(pm, n, given, a, mask)
        assert got is a and np.array_equal(got, ell)
        assert np.array_equal(_log_alr_rows(got, n, b), alr)

    kinds = supported_kinds(n)
    want = {StatisticKind.HC: hc, StatisticKind.BJ: ell.max(axis=1), StatisticKind.ALR: alr}
    # buffers of more rows than the block, as a task's last block sees them
    for scratch in (None, _stale(len(p) + 3, m)[1:]):
        for given in (None, log1m):
            got = _row_stats(p, n, kinds, scratch, None if given is None else given.copy())
            assert list(got) == list(kinds)
            for kind in kinds:
                assert np.array_equal(got[kind], want[kind])
            # a ragged block: the leading rows of the same buffers
            tail = _row_stats(p[:2], n, kinds, scratch,
                              None if given is None else given[:2].copy())
            for kind in kinds:
                assert np.array_equal(tail[kind], want[kind][:2])
        # one kind alone, in the given log(1 - p) as scratch
        for kind in kinds:
            one = _row_stats(p, n, (kind,), scratch, log1m.copy())
            assert list(one) == [kind] and np.array_equal(one[kind], want[kind])


# ---------------------------------------------------------------------------
# prepare / SortedPValues

def test_prepare_sorts_and_clamps():
    s = prepare([1.0, 0.0, 0.5])
    assert s.n == 3 and s.m == 1
    assert s.values[0] == P_MIN
    assert s.values[1] == 0.5
    assert s.values[2] == P_MAX
    assert P_MAX < 1.0


def test_prepare_accepts_arrays_and_nested():
    s = prepare(np.array([[0.4, 0.2], [0.9, 0.6]]))
    assert s.n == 4
    assert np.all(np.diff(s.values) >= 0.0)


@pytest.mark.parametrize("raw", [[], [0.5]])
def test_prepare_rejects_tiny_samples(raw):
    with pytest.raises(EmptyOrSingleton):
        prepare(raw)


@pytest.mark.parametrize("raw", [[0.2, float("nan")], [0.2, float("inf")]])
def test_prepare_rejects_nonfinite(raw):
    with pytest.raises(NonFinite):
        prepare(raw)


def test_prepare_rejects_non_numeric():
    with pytest.raises(NonFinite):
        prepare(["a", "b"])


@pytest.mark.parametrize("raw", [[-0.1, 0.5], [0.5, 1.2]])
def test_prepare_rejects_out_of_range(raw):
    with pytest.raises(OutOfRange):
        prepare(raw)


def test_sorted_pvalues_validates_shape_and_order():
    v = np.array([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(OutOfRange):
        SortedPValues(values=v, n=4, m=1)
    with pytest.raises(OutOfRange):
        SortedPValues(values=v[::-1].copy(), n=4, m=2)
    with pytest.raises(OutOfRange):
        SortedPValues(values=v.reshape(2, 2), n=4, m=2)


# ---------------------------------------------------------------------------
# structural facts about the statistics

def test_hc_star_zero_at_uniform_grid():
    # p_(i) = i/n exactly: every HC term is exactly zero
    p = np.arange(1, 11) / 10.0
    assert hc_star(prepare(p)) == 0.0


def test_bj_vanishes_when_no_exceedance():
    # all lower-half order statistics at or above i/n
    p = np.arange(1, 11) / 10.0
    assert bj_plus(prepare(p)) == 0.0


def test_bj_near_indicator_boundary_is_negligible():
    p = np.arange(1, 11) / 10.0
    p[0] *= 1.0 - 1e-9
    assert 0.0 <= bj_plus(prepare(p)) < 1e-12


def test_supported_kinds_gate():
    assert supported_kinds(2) == (StatisticKind.HC, StatisticKind.BJ)
    assert supported_kinds(3) == (StatisticKind.HC, StatisticKind.BJ)
    assert StatisticKind.ALR in supported_kinds(4)


def test_log_alr_requires_four_observations():
    with pytest.raises(SampleTooSmall):
        log_alr(prepare([0.2, 0.8]))


def test_statistic_kind_parse():
    assert StatisticKind(" HC ") is StatisticKind.HC
    assert StatisticKind("alr") is StatisticKind.ALR
    with pytest.raises(UnsupportedStatistic):
        StatisticKind("ks")


def test_bj_matches_scalar_term_maximum():
    rng = np.random.default_rng(5)
    for n in (6, 11, 40):
        s = prepare(rng.uniform(size=n))
        best = max(
            _log_lr_term(n, i, float(s.values[i - 1])) for i in range(1, n // 2 + 1)
        )
        assert bj_plus(s) == pytest.approx(best, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# overflow safety of the log-domain average

def test_log_alr_from_terms_survives_huge_terms():
    for peak in (1e4, 1e6):
        terms = np.zeros(4)
        terms[0] = peak
        got = _log_alr_rows(terms[None, :], 8)[0]
        assert math.isfinite(got)
        assert got == pytest.approx(peak + math.log(0.5), rel=1e-12)


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_log_alr_reduction_matches_scipy_logsumexp(n):
    # oracle: scipy's logsumexp over the same weighted terms, on null rows and
    # on the same rows with one 1e6 term planted at varying indices
    rng = np.random.default_rng(n)
    m = n // 2
    p = np.sort(np.clip(rng.random((16, n)), P_MIN, P_MAX), axis=1)
    ell = _log_lr_rows(p[:, :m], n)
    huge = ell.copy()
    huge[np.arange(16), rng.integers(0, m, 16)] = 1e6
    for terms in (ell, huge):
        want = logsumexp(terms + _alr_log_weights(n), axis=1)
        got = _log_alr_rows(terms, n)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
        assert _log_alr_rows(terms[3][None, :], n)[0] == got[3]


def test_log_alr_from_terms_zero_terms_give_weight_mass():
    n = 12
    expect = math.log(np.exp(_alr_log_weights(n)).sum())
    assert _log_alr_rows(np.zeros((1, 6)), n)[0] == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# sandwich bounds: weight mass <= ALR <= weight mass * exp(BJ)

def test_alr_sandwiched_by_bj():
    rng = np.random.default_rng(7)
    for n in (4, 9, 25, 101):
        m = n // 2
        s_n = sum(1.0 / i for i in range(2, m + 1))
        log_lo = math.log(0.5 * (1.0 + s_n / math.log(n / 3.0)))
        for _ in range(25):
            s = prepare(rng.uniform(size=n))
            la = log_alr(s)
            assert la >= log_lo - 1e-12
            assert la <= log_lo + bj_plus(s) + 1e-12
            assert la >= math.log(0.5) - 1e-12


# ---------------------------------------------------------------------------
# property tests

pvec = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=24
)


@settings(max_examples=60, deadline=None)
@given(raw=pvec, seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(raw, seed):
    a = np.asarray(raw)
    b = np.random.default_rng(seed).permutation(a)
    sa, sb = prepare(a), prepare(b)
    assert hc_star(sa) == hc_star(sb)
    assert bj_plus(sa) == bj_plus(sb)
    assert log_alr(sa) == log_alr(sb)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=24,
    ),
    pick=st.integers(0, 10**6),
    shrink=st.floats(min_value=0.05, max_value=0.999),
)
def test_shrinking_an_observation_never_lowers_bj_or_alr(raw, pick, shrink):
    a = np.asarray(raw)
    before_bj = bj_plus(prepare(a))
    before_alr = log_alr(prepare(a))
    a[pick % a.size] *= shrink
    assert bj_plus(prepare(a)) >= before_bj - 1e-9
    assert log_alr(prepare(a)) >= before_alr - 1e-9


@settings(max_examples=40, deadline=None)
@given(raw=pvec)
def test_bj_nonnegative_and_alr_bounded_below(raw):
    s = prepare(raw)
    assert bj_plus(s) >= 0.0
    assert log_alr(s) >= math.log(0.5) - 1e-12


def test_kernel_columns_are_cached_and_read_only():
    # built once per n and shared by every block, so no caller may write them
    n = 1001
    cols = (*_columns(n), _alr_log_weights(n))
    assert _columns(n)[0] is cols[0] and _alr_log_weights(n) is cols[-1]
    for c in cols:
        assert c.shape == (n // 2,) and not c.flags.writeable
    t = np.arange(1, n // 2 + 1) / n
    assert np.array_equal(cols[0], t) and np.array_equal(cols[1], t * n)
    with pytest.raises(ValueError):
        cols[0][0] = 0.0


# ---------------------------------------------------------------------------
# the log LR kernel against arbitrary precision

def _lr_rows_at(n):
    """(5, m) rows at sample size n: p one ulp below t = i/n, p 1e-15
    relative below t, P_MIN, t * 1e-8, and sorted uniforms."""
    m = n // 2
    t = np.arange(1, m + 1) / n
    u = np.sort(np.random.default_rng(n).random(m))
    return np.stack([np.nextafter(t, 0.0), t * (1.0 - 1e-15), np.full(m, P_MIN), t * 1e-8,
                     np.clip(u, P_MIN, P_MAX)])


def _sampled(n, p):
    """(p, log(1 - p)) as the Renyi sampler forms them: L first, then
    p = -expm1(L), clamped.  The first four rows take L as log1p(-p) moved
    one ulp towards zero, so L is not log1p of the p the kernel reads; the
    last row is a sampled null row, L the cumsum of its spacings."""
    m = n // 2
    log1m = np.nextafter(np.log1p(-p), 0.0)
    u = np.random.default_rng(n + 1).random(m)
    log1m[-1] = np.cumsum(np.log(1.0 - u) / (n + 1 - np.arange(1, m + 1)))
    return np.clip(-np.expm1(log1m), P_MIN, P_MAX), log1m


@pytest.mark.parametrize("sampler", [False, True], ids=["log1p", "sampler"])
@pytest.mark.parametrize("n", [4, 5, 9, 100, 1001, 10_000])
def test_log_lr_rows_against_mpmath(n, sampler):
    # |ell - exact| <= n 2^-52 max(1, exact), exact at 50 digits on the
    # doubles p the kernel reads, with t = i/n exact
    mp = pytest.importorskip("mpmath")
    p = _lr_rows_at(n)
    log1m = None
    if sampler:
        p, log1m = _sampled(n, p)
    got = _log_lr_rows(p, n, log1m)
    exact = np.empty_like(got)
    with mp.workdps(50):
        for (r, c), pv in np.ndenumerate(p):
            i, x = c + 1, mp.mpf(float(pv))
            t = mp.mpf(i) / n
            ell = i * mp.log(t / x) + (n - i) * (mp.log1p(-t) - mp.log1p(-x)) if x < t else 0
            exact[r, c] = float(max(ell, 0))
    assert np.all(np.abs(got - exact) <= n * 2.0**-52 * np.fmax(1.0, exact))
