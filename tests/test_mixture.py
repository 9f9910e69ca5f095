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
from sparsemix import mixture
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
# null sampler: the engine's sorted p-value rows, one replicate each

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
    # pool 100 streams of 1000 draws and check the empirical CDF
    pooled = _null_rows(1000, 21, 0, 100).ravel()
    d = sps.kstest(pooled, "uniform").statistic
    assert d < 0.006
    assert abs(pooled.mean() - 0.5) < 1e-3


def test_sample_null_mean_large_sample():
    total, count = 0.0, 0
    for v in _null_rows(100_000, 33, 0, 10):
        total += v.sum()
        count += v.size
    assert abs(total / count - 0.5) < 1e-3


def _dense_pvalues(u_pick, u_norm, eps, mu):
    """Oracle: every coordinate inverted to a normal, shifted ones by mu."""
    z = special.ndtri(np.fmax(u_norm, U_FLOOR))
    z += mu * (u_pick < eps)
    return 0.5 * special.erfc(z / math.sqrt(2.0))


@pytest.mark.parametrize("eps", [0.0, 0.004, 0.3, 1.0 - 1e-9])
def test_alternative_pvalues_sparse_kernel(eps, monkeypatch):
    # white box: unshifted coordinates are 1 - u, shifted ones the full
    # erfc transform; both agree with the dense oracle
    mu = 2.5
    rng = np.random.default_rng(23)
    u_pick = rng.random((3, 4000))
    u_norm = rng.random((3, 4000))
    u_norm[:, :4] = [0.0, U_FLOOR / 2, 0.5, 1.0 - 2.0**-53]
    shifted = u_pick < eps
    if eps == 0.0:
        assert not shifted.any()

        def no_erfc(x):
            raise AssertionError("erfc called with nothing shifted")

        monkeypatch.setattr(mixture, "erfc", no_erfc)
    if eps > 0.5:
        assert shifted.all()
    got = alternative_pvalues(u_pick, u_norm, eps, mu)
    monkeypatch.undo()
    assert got.shape == u_norm.shape
    assert np.array_equal(got[~shifted], 1.0 - u_norm[~shifted])
    full = 0.5 * special.erfc(
        (special.ndtri(np.fmax(u_norm, U_FLOOR)) + mu) / math.sqrt(2.0)
    )
    assert np.array_equal(got[shifted], full[shifted])
    np.testing.assert_allclose(
        got, _dense_pvalues(u_pick, u_norm, eps, mu), rtol=1e-14, atol=0.0
    )
    # one row through the 1-d path equals the same row of the batch
    assert np.array_equal(alternative_pvalues(u_pick[1], u_norm[1], eps, mu), got[1])
    # formed in place of the picking uniforms, as the engine does
    pick = u_pick.copy()
    assert alternative_pvalues(pick, u_norm, eps, mu, out=pick) is pick
    assert np.array_equal(pick, got)


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
    # white box: the first n uniforms select the shifted component
    n, beta = 10_000, 0.75
    spec = mixture_from(n, beta)
    counts = []
    for start in range(0, 1000, 100):
        u = uniform_rows(17, DOMAIN_POWER, 0, start, 100, n)
        counts.extend((u < spec.eps).sum(axis=1))
    mean = np.mean(counts)
    assert abs(mean - 10.0) <= 1.0
    # and the sampler consumes exactly those uniforms: spiked sample has
    # more small p-values than the matched null
    alt = _alt(mixture_from(n, 0.6), 17, 0)
    nul = _null(n, 17, 0)
    assert (alt < 0.01).sum() > (nul < 0.01).sum()


def test_sample_alternative_shifts_lower_tail():
    spec = MixtureSpec(n=2000, eps=0.05, mu=4.0)
    alt = _alt(spec, 8, 2)
    # about 5% of p-values should be pushed near zero
    frac_tiny = float((alt < 1e-3).mean())
    assert 0.02 < frac_tiny < 0.09
