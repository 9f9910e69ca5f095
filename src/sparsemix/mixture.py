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

from .errors import NonFinite, convert

_SQRT2 = math.sqrt(2.0)


def rho_star(beta: float) -> float:
    """Detection boundary: beta - 1/2 on (1/2, 3/4], (1 - sqrt(1-beta))^2 above."""
    [beta] = convert(beta=beta)
    if beta <= 0.75:
        return beta - 0.5
    return (1.0 - math.sqrt(1.0 - beta)) ** 2


def r_of_beta(beta: float) -> float:
    """Signal strength used by the power study: 20% above the boundary plus 0.1."""
    return 1.2 * rho_star(beta) + 0.1


@dataclass(frozen=True)
class MixtureSpec:
    """Concrete alternative at sample size n: fraction eps shifted by mu.
    eps = 0 or mu = 0 degenerate to the null, which tests use."""

    n: int
    eps: float
    mu: float

    def __post_init__(self) -> None:
        for name, value in zip(("n", "eps", "mu"), convert(n=self.n, eps=self.eps, mu=self.mu)):
            object.__setattr__(self, name, value)  # the class is frozen


def mixture_from(n: int, beta: float, r: float | None = None) -> MixtureSpec:
    """MixtureSpec for (n, beta): eps = n^-beta, mu = sqrt(2 r log n).

    r defaults to r_of_beta(beta); passing r explicitly supports stress tests
    at other signal strengths.
    """
    n, beta = convert(n=n, beta=beta)
    [r] = convert(r=r_of_beta(beta) if r is None else r)
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

