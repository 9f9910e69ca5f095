"""Sparse normal mixture model: calibration of (eps, mu) and p-values.

The alternative places a fraction eps_n = n^-beta of observations at mean
mu_n = sqrt(2 r log n); the detection boundary rho*(beta) separates the
detectable from the undetectable (beta, r) region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc

import numpy as np

from .errors import DomainError, NonFinite, OutOfRange, SampleTooSmall

_SQRT2 = math.sqrt(2.0)


def rho_star(beta: float) -> float:
    """Detection boundary: beta - 1/2 on (1/2, 3/4], (1 - sqrt(1-beta))^2 above."""
    beta = float(beta)
    if not 0.5 < beta <= 1.0:
        raise DomainError(f"beta must lie in (1/2, 1], got {beta!r}")
    if beta <= 0.75:
        return beta - 0.5
    return (1.0 - math.sqrt(1.0 - beta)) ** 2


def r_of_beta(beta: float) -> float:
    """Signal strength used by the power study: 20% above the boundary plus 0.1."""
    return 1.2 * rho_star(beta) + 0.1


@dataclass(frozen=True)
class MixtureSpec:
    """Concrete alternative at sample size n: fraction eps shifted by mu."""

    n: int
    eps: float
    mu: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise SampleTooSmall(f"need n >= 2, got {self.n}")
        if not math.isfinite(self.eps) or not math.isfinite(self.mu):
            raise NonFinite("eps and mu must be finite")
        # eps = 0 or mu = 0 degenerate to the null; allowed for testing
        if not 0.0 <= self.eps < 1.0:
            raise OutOfRange(f"eps must lie in [0, 1), got {self.eps!r}")
        if self.mu < 0.0:
            raise OutOfRange(f"mu must be nonnegative, got {self.mu!r}")


def mixture_from(n: int, beta: float, r: float | None = None) -> MixtureSpec:
    """MixtureSpec for (n, beta): eps = n^-beta, mu = sqrt(2 r log n).

    r defaults to r_of_beta(beta); passing r explicitly supports stress tests
    at other signal strengths.
    """
    beta = float(beta)
    if not 0.5 < beta <= 1.0:
        raise DomainError(f"beta must lie in (1/2, 1], got {beta!r}")
    r = r_of_beta(beta) if r is None else float(r)
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r!r}")
    if n < 2:
        raise SampleTooSmall(f"need n >= 2, got {n}")
    return MixtureSpec(n=n, eps=float(n) ** -beta, mu=math.sqrt(2.0 * r * math.log(n)))


def pvalue(x):
    """Upper-tail standard normal p-value, 0.5 erfc(x / sqrt 2), with the C
    library's `erfc` (through `math`) on each element.  Accepts a scalar or
    array; returns the same shape."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFinite("observations must be finite")
    q = a / _SQRT2
    p = 0.5 * np.fromiter(map(erfc, q.ravel().tolist()), float, q.size).reshape(q.shape)
    return float(p) if np.isscalar(x) or a.ndim == 0 else p

