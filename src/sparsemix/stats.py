"""Goodness-of-fit statistics on sorted p-values.

Implements the higher-criticism statistic HC*, the one-sided Berk-Jones
statistic BJ+, and the average likelihood ratio ALR (returned in the log
domain).  All three scan the lower half of the order statistics
p_(1) <= ... <= p_(m), m = floor(n/2).

The scalar operations are one-row wrappers over the batched kernels used by
the Monte Carlo engine, so a scalar evaluation and the corresponding row of a
batch are bitwise identical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyOrSingleton,
    NonFinite,
    OutOfRange,
    SampleTooSmall,
    UnsupportedStatistic,
)

# Clamp bounds for p-values: keeps logs and the HC denominator finite.  The
# upper bound is the largest double strictly below 1 (1 - 1e-300 rounds to 1).
P_MIN = 1e-300
P_MAX = float(np.nextafter(1.0, 0.0))


class StatisticKind(str, enum.Enum):
    HC = "hc"
    BJ = "bj"
    ALR = "alr"

    @classmethod
    def parse(cls, token: str) -> "StatisticKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise UnsupportedStatistic(
                f"unknown statistic {token!r}; expected one of hc, bj, alr"
            ) from None


def supported_kinds(n: int) -> tuple[StatisticKind, ...]:
    """Statistics computable at sample size n (ALR needs n >= 4)."""
    if n < 4:
        return (StatisticKind.HC, StatisticKind.BJ)
    return (StatisticKind.HC, StatisticKind.BJ, StatisticKind.ALR)


@dataclass(frozen=True)
class SortedPValues:
    """A validated, ascending, clamped p-value sample."""

    values: np.ndarray
    n: int
    m: int

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 1 or self.n != v.size:
            raise OutOfRange("values must be one-dimensional with n entries")
        if self.n < 2:
            raise EmptyOrSingleton(f"need at least 2 p-values, got {self.n}")
        if self.m != self.n // 2:
            raise OutOfRange(f"m must equal floor(n/2), got {self.m}")
        if not np.all(np.isfinite(v)):
            raise NonFinite("p-values must be finite")
        if v[0] < P_MIN or v[-1] > P_MAX:
            raise OutOfRange("p-values must lie in the clamped unit interval")
        if np.any(np.diff(v) < 0.0):
            raise OutOfRange("p-values must be sorted ascending")


def prepare(raw) -> SortedPValues:
    """Validate, clamp to [P_MIN, P_MAX], and sort a raw p-value sample."""
    try:
        a = np.asarray(raw, dtype=float).ravel()
    except (TypeError, ValueError):
        raise NonFinite("sample contains non-numeric values") from None
    n = a.size
    if n < 2:
        raise EmptyOrSingleton(f"need at least 2 p-values, got {n}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("sample contains NaN or infinite values")
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise OutOfRange("p-values must lie in [0, 1]")
    v = np.sort(np.clip(a, P_MIN, P_MAX), kind="stable")
    return SortedPValues(values=v, n=n, m=n // 2)


@lru_cache(maxsize=8)
def _columns(n: int) -> tuple[np.ndarray, ...]:
    """The kernels' per-index columns at sample size n, i = 1..n // 2, built
    once per n and read-only: t = i/n, i (formed as t * n), log1p(-t) and
    n - i."""
    t = np.arange(1, n // 2 + 1, dtype=float) / n
    i = t * n
    cols = (t, i, np.log1p(-t), n - i)
    for c in cols:
        c.flags.writeable = False
    return cols


@lru_cache(maxsize=8)
def _alr_log_weights(n: int) -> np.ndarray:
    """log of the ALR mixing weights, w_1 = 1/2, w_i = 1/(2 i log(n/3)),
    built once per n and read-only."""
    m = n // 2
    i = np.arange(1, m + 1, dtype=float)
    logw = -np.log(2.0 * i * np.log(n / 3.0))
    logw[0] = -math.log(2.0)
    logw.flags.writeable = False
    return logw


def _hc_rows(pm: np.ndarray, n: int, a=None, b=None) -> np.ndarray:
    """HC* per row of sorted p-values pm at t = i/n: the maximum of
    sqrt(n) (t - p) / sqrt(p (1 - p)), formed in the float buffers a and b
    (allocated when not given)."""
    t = _columns(n)[0]
    a = np.subtract(t, pm, out=a)
    a *= math.sqrt(n)
    b = np.subtract(1.0, pm, out=b)
    b *= pm
    np.sqrt(b, out=b)
    a /= b
    return a.max(axis=1)


def _log_lr_rows(pm: np.ndarray, n: int, ell=None, tail=None, mask=None) -> np.ndarray:
    """log LR_{n,i} for each row of sorted p-values pm at t = i/n, i = 1..m:
    [i log(i/(n p)) + (n-i) log((1 - i/n)/(1 - p))] 1{p < i/n}, floored at zero.

    The result is formed in the float buffer ell, with tail and the bool mask
    as scratch; each is allocated when not given."""
    t, i, log1p_t, n_minus_i = _columns(n)
    ell = np.multiply(n, pm, out=ell)
    np.divide(i, ell, out=ell)
    np.log(ell, out=ell)
    ell *= i
    tail = np.negative(pm, out=tail)
    np.log1p(tail, out=tail)
    np.subtract(log1p_t, tail, out=tail)
    tail *= n_minus_i
    ell += tail
    mask = np.greater_equal(pm, t, out=mask)
    np.copyto(ell, 0.0, where=mask)
    np.fmax(ell, 0.0, out=ell)
    return ell


def _log_alr_rows(ell: np.ndarray, n: int, x=None) -> np.ndarray:
    """log ALR per row of log LR terms: a max-shifted log-sum-exp of
    ell + log w, reduced in the float buffer x (allocated when not given) so
    large terms cannot overflow."""
    x = np.add(ell, _alr_log_weights(n), out=x)
    top = x.max(axis=1)
    x -= top[:, None]
    np.exp(x, out=x)
    return top + np.log(x.sum(axis=1))


def _row_stats(
    p: np.ndarray, n: int, kinds: tuple[StatisticKind, ...], scratch=None
) -> dict[StatisticKind, np.ndarray]:
    """Requested statistics for every row of p, whose first n // 2 columns
    are the sorted lower half of a sample of n p-values, and the only
    columns read: the engine passes the (batch, n // 2) lower halves it
    samples, a one-sample call the whole (1, n) sorted sample.

    `scratch` holds the buffers the kernels write into: two float arrays and
    one bool array, each (rows, n // 2) with rows >= batch, of which the first
    `batch` rows are used.  Without it each kernel allocates its own.
    """
    m = n // 2
    pm = p[:, :m]
    a = b = mask = None
    if scratch is not None:
        a, b, mask = (buf[: len(p)] for buf in scratch)
    out: dict[StatisticKind, np.ndarray] = {}
    if StatisticKind.HC in kinds:
        out[StatisticKind.HC] = _hc_rows(pm, n, a, b)
    if StatisticKind.BJ in kinds or StatisticKind.ALR in kinds:
        ell = _log_lr_rows(pm, n, a, b, mask)
        if StatisticKind.BJ in kinds:
            out[StatisticKind.BJ] = ell.max(axis=1)
        if StatisticKind.ALR in kinds:
            out[StatisticKind.ALR] = _log_alr_rows(ell, n, b)
    return out


def hc_star(sample: SortedPValues) -> float:
    """Higher criticism: max over i <= n/2 of sqrt(n)(i/n - p_(i)) / sqrt(p_(i)(1-p_(i)))."""
    res = _row_stats(sample.values[None, :], sample.n, (StatisticKind.HC,))
    return float(res[StatisticKind.HC][0])


def bj_plus(sample: SortedPValues) -> float:
    """One-sided Berk-Jones: max over i <= n/2 of log LR_{n,i} at p_(i)."""
    res = _row_stats(sample.values[None, :], sample.n, (StatisticKind.BJ,))
    return float(res[StatisticKind.BJ][0])


def log_alr(sample: SortedPValues) -> float:
    """log of the average likelihood ratio over the lower half order statistics.

    ALR = (1/2) LR_{n,1} + (1/2) sum_{i=2}^{m} LR_{n,i} / (i log(n/3)),
    evaluated as a max-shifted log-sum-exp so large LR terms cannot overflow.
    """
    if sample.n < 4:
        raise SampleTooSmall(
            f"ALR needs n >= 4 (log(n/3) must be positive), got n={sample.n}"
        )
    res = _row_stats(sample.values[None, :], sample.n, (StatisticKind.ALR,))
    return float(res[StatisticKind.ALR][0])
