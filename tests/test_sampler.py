"""The lower-half sampler (`engine._lower_rows`): exact laws, and the dense
sampler it replaced as the law oracle.

The dense sampler draws all n p-values of a replicate (2n uniforms for the
alternative: n to pick the shifted coordinates, n for the values), sorts the
whole row and keeps its lower half.  It lives on here, on another seed, so
that the sparse rows can be compared with it by two-sample KS on the
statistics they feed."""

import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from sparsemix import StatisticKind, engine
from sparsemix.mixture import MixtureSpec, mixture_from
from sparsemix.rng import DOMAIN_NULL, DOMAIN_POWER, U_FLOOR, Rows
from sparsemix.stats import P_MAX, P_MIN, _row_stats

KINDS = tuple(StatisticKind)
BLOCK = 500  # rows per chunk of the dense oracle, to bound its memory


def _dense_lower_halves(n, eps, mu, seed, domain, start, count):
    """(count, n // 2) lower halves of the dense sampler: each row is 2n
    uniforms of numpy's own generator seeded with (seed, domain, start);
    coordinate k is shifted when its first uniform is below eps, and its
    p-value is 1 - u of its second uniform, or Phi-bar(Phi^-1(u) + mu) when
    shifted."""
    seq = np.random.SeedSequence((seed, domain, start))
    u = np.random.Generator(np.random.PCG64(seq)).random((count, 2 * n))
    pick, v = u[:, :n], u[:, n:]
    p = 1.0 - v
    shifted = pick < eps
    z = special.ndtri(np.fmax(v[shifted], U_FLOOR)) + mu
    p[shifted] = 0.5 * special.erfc(z / math.sqrt(2.0))
    return np.sort(np.clip(p, P_MIN, P_MAX), axis=1)[:, : n // 2]


def _stats(rows_of, n, count):
    """Statistics of rows 0..count-1, from rows_of(start, c), BLOCK at a time."""
    parts = [_row_stats(rows_of(s, min(BLOCK, count - s)), n, KINDS)
             for s in range(0, count, BLOCK)]
    return {k: np.concatenate([part[k] for part in parts]) for k in KINDS}


def _dense_stats(n, eps, mu, seed, domain, count):
    return _stats(lambda s, c: _dense_lower_halves(n, eps, mu, seed, domain, s, c), n, count)


def _lower_rows(n, eps, mu, readers, count):
    """`engine._lower_rows` of the next `count` rows of `readers`, formed in
    new buffers."""
    bufs = [np.empty((count, w)) for w in engine._buffer_widths(n, *readers)]
    return engine._lower_rows(n, eps, mu, *readers, count, bufs)


def _null_rows(n, seed, count):
    readers = engine._readers(n, 0.0, seed, DOMAIN_NULL, 0, 0, count)
    return _lower_rows(n, 0.0, 0.0, readers, count)


def _alt_rows(spec, seed, count):
    readers = engine._readers(spec.n, spec.eps, seed, DOMAIN_POWER, 0, 0, count)
    return _lower_rows(spec.n, spec.eps, spec.mu, readers, count)


def _alt_stats(spec, seed, count):
    # one pair of readers for every chunk, as a task reads its blocks
    readers = engine._readers(spec.n, spec.eps, seed, DOMAIN_POWER, 0, 0, count)
    return _stats(lambda s, c: _lower_rows(spec.n, spec.eps, spec.mu, readers, c), spec.n, count)


def _null_stats(n, seed, count):
    readers = engine._readers(n, 0.0, seed, DOMAIN_NULL, 0, 0, count)
    return _stats(lambda s, c: _lower_rows(n, 0.0, 0.0, readers, c), n, count)


def _assert_same_law(a, b):
    for k in KINDS:
        assert sps.ks_2samp(a[k], b[k]).pvalue > 1e-3, k


@pytest.mark.parametrize("n,count", [(100, 20_000), (1000, 4000)])
def test_null_matches_the_dense_sampler(n, count):
    _assert_same_law(_null_stats(n, 41, count), _dense_stats(n, 0.0, 0.0, 42, DOMAIN_NULL, count))


@pytest.mark.parametrize("beta", [0.55, 0.75, 1.0])
def test_alternative_matches_the_dense_sampler(beta):
    spec = mixture_from(1000, beta)
    _assert_same_law(
        _alt_stats(spec, 43, 4000),
        _dense_stats(spec.n, spec.eps, spec.mu, 44, DOMAIN_POWER, 4000),
    )


def test_eps_zero_alternative_has_the_null_law():
    spec = MixtureSpec(n=1000, eps=0.0, mu=3.0)
    _assert_same_law(_alt_stats(spec, 45, 4000), _null_stats(spec.n, 46, 4000))


@pytest.mark.parametrize(
    "n,eps",
    [(1000, 0.0), (30, 0.6), (10, 1.0 - 1e-9)],
    ids=["null", "alt-most-rows-short", "alt-all-shifted"],
)
def test_order_statistics_are_beta(n, eps):
    # p_(i) of n uniforms is Beta(i, n - i + 1).  A mixture shifted by
    # mu = 0 has the null's law at any eps, so its rows check the shift
    # count, the unshifted spacings of N = n - K, the shifted values and
    # the merge, also where fewer than m unshifted p-values exist
    rows = 40_000
    m = n // 2
    if eps == 0.0:
        low = _null_rows(n, 11, rows)
    else:
        low = _alt_rows(MixtureSpec(n=n, eps=eps, mu=0.0), 11, rows)
    for i in sorted({1, 2, m // 2, m}):
        assert sps.kstest(low[:, i - 1], sps.beta(i, n - i + 1).cdf).pvalue > 1e-3, i


@pytest.mark.parametrize("n", [2, 3, 30, 1000, 10_000])
def test_shift_cdf_matches_scipy(n):
    for eps in (1e-9, 1.0 / n, n**-0.55, 0.3, 0.5, 0.9, 1.0 - 1e-9):
        # the table stops where the CDF rounds to 1: no uniform in [0, 1)
        # inverts past it
        cdf = engine._shift_cdf(n, eps)
        assert cdf.size <= n + 1 and cdf[-1] == 1.0 and not cdf.flags.writeable
        assert np.all(np.diff(cdf) >= 0.0) and np.all(cdf[:-1] < 1.0)
        ref = sps.binom.cdf(np.arange(n + 1), n, eps)
        assert np.max(np.abs(cdf - ref[: cdf.size])) <= 1e-12, eps
        assert np.all(ref[cdf.size - 1 :] >= 1.0 - 1e-12), eps


@pytest.mark.parametrize("n,eps", [(1000, 0.3), (10_000, 10_000**-0.75)])
def test_shift_count_is_binomial(n, eps):
    # K is a row's first uniform, inverted through the Bin(n, eps) CDF
    rows = 100_000
    u = np.random.Generator(np.random.PCG64(47)).random(rows)
    k = np.searchsorted(engine._shift_cdf(n, eps), u, side="right")
    mean, var = n * eps, n * eps * (1.0 - eps)
    assert abs(k.mean() - mean) < 4.0 * math.sqrt(var / rows)
    assert abs(k.var() - var) < 4.0 * var * math.sqrt(2.0 / rows)


def test_nearly_all_shifted_leaves_fewer_than_m_unshifted():
    # eps = 1 - 1e-9: the Bin(n, eps) CDF inverts every one of 2000 uniforms
    # to K > n - m, so fewer than m unshifted order statistics exist and the
    # shifted p-values fill the rest of the row
    spec = MixtureSpec(n=1000, eps=1.0 - 1e-9, mu=1.5)
    n, m, rows = spec.n, spec.n // 2, 2000
    u = Rows(48, DOMAIN_POWER, 0, 0, rows, 1 + m).read(np.empty((rows, 1 + m)))[:, 0]
    assert np.all(np.searchsorted(engine._shift_cdf(n, spec.eps), u, side="right") > n - m)
    low = _alt_rows(spec, 48, rows)
    assert low.shape == (rows, m)
    assert np.all(np.diff(low, axis=1) >= 0.0)
    assert np.all((low >= P_MIN) & (low <= P_MAX))
    _assert_same_law(_alt_stats(spec, 48, rows), _dense_stats(n, spec.eps, spec.mu, 49,
                                                              DOMAIN_POWER, rows))
