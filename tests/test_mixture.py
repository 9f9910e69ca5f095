"""Detection boundary, mixture calibration, p-values, and samplers."""

import math

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
from sparsemix.engine import _alt_rows, _null_rows
from sparsemix.mixture import alternative_pvalues
from sparsemix.rng import DOMAIN_POWER, U_FLOOR, uniform_rows

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


def test_pvalue_shapes_and_validation():
    assert isinstance(pvalue(1.0), float)
    arr = pvalue(np.zeros((3, 2)))
    assert arr.shape == (3, 2)
    with pytest.raises(NonFinite):
        pvalue(float("inf"))
    with pytest.raises(NonFinite):
        pvalue(np.array([0.0, float("nan")]))


# ---------------------------------------------------------------------------
# null sampler: the engine's sorted, clamped lower halves, one replicate each

def _null(n, seed, idx):
    return _null_rows(n, seed, idx, 1)[0]


def _alt(spec, seed, idx):
    return _alt_rows(spec.n, spec.eps, spec.mu, seed, 0, idx, 1)[0]


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
    # white box: a block calls alternative_pvalues once, on draws m+1..m+K of
    # each row, and not at all when no row shifts; at eps = 0 a row is m
    # spacing draws and erfc is never called
    n, mu, rows = 400, 2.5, 6
    m = n // 2
    calls, widths = [], []
    shifted, draw = engine.alternative_pvalues, engine.uniform_rows

    def recorded(u, mu):
        calls.append(u.copy())
        return shifted(u, mu)

    def counted(*args, **kwargs):
        widths.append(args[5])
        return draw(*args, **kwargs)

    def no_erfc(x):
        raise AssertionError("erfc called with nothing shifted")

    monkeypatch.setattr(engine, "alternative_pvalues", recorded)
    monkeypatch.setattr(engine, "uniform_rows", counted)
    if eps == 0.0:
        monkeypatch.setattr(mixture, "erfc", no_erfc)
    low = _alt_rows(n, eps, mu, 23, 0, 0, rows)
    monkeypatch.undo()
    assert low.shape == (rows, m)
    if eps == 0.0:
        assert calls == [] and widths == [m]
        return
    # one draw per block, wide enough for the most shifts a row can draw
    assert widths == [m + engine._shift_cdf(n, eps).size]
    u = uniform_rows(23, DOMAIN_POWER, 0, 0, rows, widths[0])
    shifts = np.searchsorted(sps.binom.cdf(np.arange(n + 1), n, eps), u[:, 0], side="right")
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.concatenate(
        [row[1 + m : 1 + m + k] for row, k in zip(u, shifts)]))
    # the transform equals the scipy oracle bitwise, edge uniforms included
    v = np.concatenate([calls[0], [0.0, U_FLOOR / 2, 0.5, 1.0 - 2.0**-53]])
    full = 0.5 * special.erfc(
        (special.ndtri(np.fmax(v, U_FLOOR)) + mu) / math.sqrt(2.0)
    )
    assert np.array_equal(alternative_pvalues(v, mu), full)


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
    u = uniform_rows(17, DOMAIN_POWER, 0, 0, 1000, engine._row_width(n, spec.eps))[:, 0]
    counts = np.searchsorted(engine._shift_cdf(n, spec.eps), u, side="right")
    assert abs(counts.mean() - 10.0) <= 1.0
    # and the sampler consumes exactly those uniforms: spiked samples have
    # more small p-values than matched nulls (about 115 against 100 a row at
    # beta = 0.6, so one row against one loses about one time in seven)
    spec = mixture_from(n, 0.6)
    alt = _alt_rows(n, spec.eps, spec.mu, 17, 0, 0, 20)
    nul = _null_rows(n, 17, 0, 20)
    assert (alt < 0.01).sum() > (nul < 0.01).sum()


def test_sample_alternative_shifts_lower_tail():
    spec = MixtureSpec(n=2000, eps=0.05, mu=4.0)
    alt = _alt(spec, 8, 2)
    # about 5% of the n p-values should be pushed near zero, all of them
    # into the lower half
    frac_tiny = float((alt < 1e-3).sum()) / spec.n
    assert 0.02 < frac_tiny < 0.09
