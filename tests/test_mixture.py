"""Detection boundary, mixture calibration, p-values, and samplers."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from sparsemix import (
    DomainError,
    MixtureSpec,
    NonFinite,
    OutOfRange,
    SampleTooSmall,
    mixture_from,
    pvalue,
    r_of_beta,
    rho_star,
)
from sparsemix import engine, mixture
from sparsemix.rng import DOMAIN_NULL, DOMAIN_POWER, DOMAIN_SHIFT, Rows
from sparsemix.stats import P_MIN

REL = 1e-12


# ---------------------------------------------------------------------------
# detection boundary

def test_rho_star_frozen_values():
    assert rho_star(0.6) == pytest.approx(0.1, rel=REL)
    assert rho_star(0.75) == pytest.approx(0.25, rel=REL)
    assert rho_star(0.9) == pytest.approx(0.4675444679663241, rel=REL)
    assert rho_star(1.0) == pytest.approx(1.0, rel=REL)


def test_rho_star_continuous_at_branch_point():
    lo = rho_star(0.75 - 1e-9)
    hi = rho_star(0.75 + 1e-9)
    assert abs(hi - lo) < 1e-8


def test_rho_star_strictly_increasing():
    grid = np.linspace(0.5 + 1e-6, 1.0, 200)
    vals = [rho_star(b) for b in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("beta", [0.5, 0.3, 1.0 + 1e-9, -1.0])
def test_rho_star_domain(beta):
    with pytest.raises(DomainError):
        rho_star(beta)


def test_r_of_beta_sits_above_boundary():
    assert r_of_beta(0.6) == pytest.approx(0.22, rel=REL)
    assert r_of_beta(0.75) == pytest.approx(0.4, rel=REL)
    assert r_of_beta(1.0) == pytest.approx(1.3, rel=REL)
    for beta in np.linspace(0.55, 1.0, 10):
        assert r_of_beta(beta) > rho_star(beta)


# ---------------------------------------------------------------------------
# mixture calibration

def test_mixture_from_frozen_values():
    spec = mixture_from(10_000, 0.75)
    assert spec.eps == pytest.approx(1e-3, rel=REL)
    assert spec.mu == pytest.approx(2.7144561697660447, rel=REL)
    dense = mixture_from(1_000_000, 1.0)
    assert dense.eps == pytest.approx(1e-6, rel=REL)
    assert dense.mu == pytest.approx(5.993356943375483, rel=REL)


def test_mixture_from_r_override():
    spec = mixture_from(100, 0.8, r=0.5)
    assert spec.mu == pytest.approx(math.sqrt(math.log(100)), rel=REL)


def test_sparsity_params_validation():
    mixture_from(10, 0.8, r=0.1)
    with pytest.raises(DomainError):
        mixture_from(10, 0.5, r=0.1)
    with pytest.raises(DomainError):
        mixture_from(10, 0.8, r=0.0)
    with pytest.raises(SampleTooSmall):
        mixture_from(1, 0.8, r=0.1)
    with pytest.raises(SampleTooSmall):  # checked before n ** -beta is formed
        mixture_from(0, 0.8, r=0.1)


def test_mixture_spec_validation():
    MixtureSpec(n=10, eps=0.0, mu=0.0)  # degenerate null is allowed
    with pytest.raises(OutOfRange):
        MixtureSpec(n=10, eps=1.0, mu=1.0)
    with pytest.raises(OutOfRange):
        MixtureSpec(n=10, eps=-0.1, mu=1.0)
    with pytest.raises(OutOfRange):
        MixtureSpec(n=10, eps=0.1, mu=-1.0)
    with pytest.raises(NonFinite):
        MixtureSpec(n=10, eps=float("nan"), mu=1.0)
    with pytest.raises(SampleTooSmall):
        MixtureSpec(n=1, eps=0.1, mu=1.0)


# ---------------------------------------------------------------------------
# p-values

def test_pvalue_frozen_values():
    assert pvalue(1.644854) == pytest.approx(0.04999996152541305, rel=REL)
    assert pvalue(6.0) == pytest.approx(9.865876450376981e-10, rel=REL)
    assert pvalue(-2.5) == pytest.approx(0.9937903346742239, rel=REL)
    assert pvalue(0.0) == 0.5


def test_pvalue_symmetry_and_monotonicity():
    x = np.linspace(-6, 6, 121)
    p = pvalue(x)
    np.testing.assert_allclose(p + pvalue(-x), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.diff(p) < 0.0)


def test_pvalue_against_mpmath():
    # the C library's erfc against 40 digits on the argument pvalue hands it,
    # x / sqrt 2 rounded to a double: that rounding alone moves p by up to
    # x^2 ulp, in any implementation of the formula
    x = np.random.default_rng(19).uniform(-8.0, 37.0, 3000)
    q = x / math.sqrt(2.0)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.erfc(mpmath.mpf(v)) / 2) for v in q.tolist()])
    assert want.min() >= P_MIN
    np.testing.assert_allclose(pvalue(x), want, rtol=1e-15, atol=0)


def test_pvalue_agrees_with_scipy():
    # scipy ships Cephes' erfc, off by up to 5.7e-14 itself; below P_MIN,
    # where every sample is clamped, Cephes underflows to 0 sooner than libm
    z = np.random.default_rng(20261).standard_normal(1_000_000)
    x = np.concatenate([3.0 * z, 15.0 * z, np.linspace(-40.0, 40.0, 80001)])
    want = 0.5 * special.erfc(x / math.sqrt(2.0))
    np.testing.assert_allclose(np.fmax(pvalue(x), P_MIN), np.fmax(want, P_MIN),
                               rtol=1e-13, atol=0)


def test_pvalue_shapes_and_validation():
    for x in (1.0, np.float64(1.0), np.array(1.0)):
        assert isinstance(pvalue(x), float)
    x = np.random.default_rng(4).standard_normal((2, 3, 7)) * 4.0
    arr = pvalue(x)
    assert arr.shape == (2, 3, 7)
    assert np.array_equal(arr.ravel(), [pvalue(v) for v in x.ravel()])
    assert pvalue(np.empty((4, 0))).shape == (4, 0)
    with pytest.raises(NonFinite):
        pvalue(float("inf"))
    with pytest.raises(NonFinite):
        pvalue(np.array([0.0, float("nan")]))


# ---------------------------------------------------------------------------
# null sampler: the engine's sorted, clamped lower halves, one replicate each

def _null_rows(n, seed, start, count):
    return engine._null_rows(n, Rows(seed, DOMAIN_NULL, 0, start, count, n // 2), count)


def _alt_rows(n, eps, mu, seed, start, count):
    readers = engine._alt_readers(n, eps, seed, 0, start, count)
    return engine._alt_rows(n, eps, mu, *readers, count)


def _null(n, seed, idx):
    return _null_rows(n, seed, idx, 1)[0]


def _alt(spec, seed, idx):
    return _alt_rows(spec.n, spec.eps, spec.mu, seed, idx, 1)[0]


def test_sample_null_deterministic():
    a = _null(50, 9, 3)
    b = _null(50, 9, 3)
    assert np.array_equal(a, b)
    c = _null(50, 9, 4)
    assert not np.array_equal(a, c)


def test_sample_null_uniformity():
    # p_(i) of n uniforms is Beta(i, n - i + 1): row r is read at one index
    # i_r, cycling through 1..m, so the transformed values are independent
    # uniforms
    n, rows = 1000, 20_000
    m = n // 2
    low = _null_rows(n, 21, 0, rows)
    assert low.shape == (rows, m)
    i = np.arange(rows) % m + 1
    v = sps.beta.cdf(low[np.arange(rows), i - 1], i, n - i + 1)
    assert sps.kstest(v, "uniform").pvalue > 1e-3


def test_sample_null_mean_large_sample():
    # E p_(i) = i / (n + 1), so the lower half averages (m + 1) / (2 (n + 1))
    n = 100_000
    m = n // 2
    low = _null_rows(n, 33, 0, 10)
    assert low.shape == (10, m)
    assert abs(low.mean() - (m + 1) / (2 * (n + 1))) < 1e-3


@pytest.mark.parametrize("eps", [0.0, 0.004, 0.3, 1.0 - 1e-9])
def test_alternative_pvalues_sparse_kernel(eps, monkeypatch):
    # white box: a block calls pvalue once, on the first K normals of each
    # row shifted by mu; at eps = 0 a row is m uniforms, no normals are read
    # and erfc is never called
    n, mu, rows = 400, 2.5, 6
    m = n // 2
    calls = []

    def recorded(x):
        calls.append(x.copy())
        return pvalue(x)

    def no_erfc(x):
        raise AssertionError("erfc called with nothing shifted")

    monkeypatch.setattr(engine, "pvalue", recorded)
    if eps == 0.0:
        monkeypatch.setattr(mixture, "erfc", no_erfc)
    uniforms, normals = engine._alt_readers(n, eps, 23, 0, 0, rows)
    low = engine._alt_rows(n, eps, mu, uniforms, normals, rows)
    monkeypatch.undo()
    assert low.shape == (rows, m)
    if eps == 0.0:
        assert calls == [] and normals is None and uniforms.width == m
        return
    # as many normals a row as the most shifts a row can draw
    width = engine._shift_cdf(n, eps).size - 1
    assert (uniforms.width, normals.width) == (1 + m, width)
    u = Rows(23, DOMAIN_POWER, 0, 0, rows, 1 + m).read(np.empty((rows, 1 + m)))
    z = Rows(23, DOMAIN_SHIFT, 0, 0, rows, width, normal=True).read(np.empty((rows, width)))
    shifts = np.searchsorted(sps.binom.cdf(np.arange(n + 1), n, eps), u[:, 0], side="right")
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.concatenate(
        [row[:k] for row, k in zip(z, shifts)]) + mu)


# ---------------------------------------------------------------------------
# alternative sampler

def test_sample_alternative_deterministic():
    spec = mixture_from(200, 0.7)
    a = _alt(spec, 5, 1)
    b = _alt(spec, 5, 1)
    assert np.array_equal(a, b)


def test_sample_alternative_eps_zero_matches_null_law():
    spec = MixtureSpec(n=5000, eps=0.0, mu=3.0)
    alt = _alt(spec, 6, 0)
    nul = _null(5000, 6, 1)
    d = sps.ks_2samp(alt, nul)
    assert d.pvalue > 0.01


def test_sample_alternative_shift_count_is_binomial():
    # white box: each row's first draw gives its shift count K ~ Bin(n, eps)
    n, beta = 10_000, 0.75
    spec = mixture_from(n, beta)
    u = Rows(17, DOMAIN_POWER, 0, 0, 1000, 1 + n // 2).read(np.empty((1000, 1 + n // 2)))[:, 0]
    counts = np.searchsorted(engine._shift_cdf(n, spec.eps), u, side="right")
    assert abs(counts.mean() - 10.0) <= 1.0
    # and the sampler consumes exactly those uniforms: spiked samples have
    # more small p-values than matched nulls (about 115 against 100 a row at
    # beta = 0.6, so one row against one loses about one time in seven)
    spec = mixture_from(n, 0.6)
    alt = _alt_rows(n, spec.eps, spec.mu, 17, 0, 20)
    nul = _null_rows(n, 17, 0, 20)
    assert (alt < 0.01).sum() > (nul < 0.01).sum()


def test_sample_alternative_shifts_lower_tail():
    spec = MixtureSpec(n=2000, eps=0.05, mu=4.0)
    alt = _alt(spec, 8, 2)
    # about 5% of the n p-values should be pushed near zero, all of them
    # into the lower half
    frac_tiny = float((alt < 1e-3).sum()) / spec.n
    assert 0.02 < frac_tiny < 0.09
