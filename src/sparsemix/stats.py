"""Goodness-of-fit statistics on sorted p-values.

Implements the higher-criticism statistic HC*, the one-sided Berk-Jones
statistic BJ+, and the average likelihood ratio ALR (returned in the log
domain).  All three scan the lower half of the order statistics
p_(1) <= ... <= p_(m), m = floor(n/2).

The scalar operations are one-row wrappers over the batched kernels used by
the Monte Carlo engine.  HC of a scalar evaluation and of the corresponding
row of a batch are bitwise identical.  BJ and ALR read log(1 - p_(i)): a
simulated row hands the kernels the value its sampler formed before p_(i)
(`engine._lower_rows`), a one-sample call forms it with log1p, so the two
agree to the rounding of that one value and are bitwise identical given the
same log(1 - p_(i)).

HC and BJ are maxima of terms that fall as p_(i) rises, so each exceeds a
critical value c exactly when some p_(i) lies below a boundary b_i(c).
`_log1m_boundaries` gives the boundaries as log(1 - b_i(c)), the domain of
the sampler's L, for size tables at closed-form critical values.

A kind is a StatisticKind, whose constructor also takes its value in any case
and padding (" HC ") and raises UnsupportedStatistic for anything else.
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
    def _missing_(cls, token):
        if isinstance(token, str) and token.strip().lower() in cls._value2member_map_:
            return cls(token.strip().lower())
        raise UnsupportedStatistic(f"unknown statistic {token!r}; expected one of hc, bj, alr")


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
    once per n and read-only: t = i/n, i (formed as t * n), log(t),
    log1p(-t) and n - i."""
    t = np.arange(1, n // 2 + 1, dtype=float) / n
    i = t * n
    cols = (t, i, np.log(t), np.log1p(-t), n - i)
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


def _log_lr_rows(pm: np.ndarray, n: int, log1m=None, ell=None, mask=None) -> np.ndarray:
    """log LR_{n,i} for each row of sorted p-values pm at t = i/n, i = 1..m:
    [i (log t - log p) + (n-i) (log1p(-t) - log(1 - p))] 1{p < i/n}, floored
    at zero.

    log1m holds log(1 - p) of pm, as a sampler formed it, and is overwritten;
    without it the kernel forms it as log1p(-pm).  The result is formed in
    the float buffer ell, with the bool mask as scratch; each is allocated
    when not given."""
    t, i, log_t, log1p_t, n_minus_i = _columns(n)
    ell = np.log(pm, out=ell)
    np.subtract(log_t, ell, out=ell)
    ell *= i
    if log1m is None:
        log1m = np.negative(pm)
        np.log1p(log1m, out=log1m)
    np.subtract(log1p_t, log1m, out=log1m)
    log1m *= n_minus_i
    ell += log1m
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


def _hc_boundary(c: np.ndarray, n: int) -> np.ndarray:
    """b_i(c) for each c of the column c, c >= 0: the p at which HC's term i
    equals c, the smaller root of (n + c^2) p^2 - (2nt + c^2) p + nt^2,
    t = i/n, in a form free of cancellation."""
    t = _columns(n)[0]
    return 2.0 * n * t * t / (2.0 * n * t + c * c + c * np.sqrt(c * c + 4.0 * n * t * (1.0 - t)))


def _bj_boundary(c: np.ndarray, n: int) -> np.ndarray:
    """b_i(c) for each c of the column c, c > 0: the root of log LR_{n,i}(p)
    = c on (0, t), where the term falls from infinity to 0, by bisection in
    x = log p down to adjacent doubles.  The bracket's left end is where
    i (log t - x) + (n - i) log1p(-t), which the term exceeds since
    log1p(-p) <= 0, exceeds c."""
    t, i, log_t, log1p_t, n_minus_i = _columns(n)
    hi = np.broadcast_to(log_t, np.broadcast_shapes(c.shape, t.shape)).copy()
    lo = log_t - (c - n_minus_i * log1p_t) / i - 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            return np.exp(hi)
        above = i * (log_t - mid) + n_minus_i * (log1p_t - np.log1p(-np.exp(mid))) > c
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)


def _log1m_boundaries(kind: StatisticKind, cvs, n: int) -> np.ndarray:
    """(len(cvs), n // 2) boundaries in the sampler's domain, lambda_i(c) =
    log(1 - b_i(c)) for each critical value c > 0 of HC or BJ.

    Each term of the statistic is a decreasing function of p_(i), and
    L_i = log(1 - p_(i)) of p_(i), so the statistic exceeds c exactly when
    L_i > lambda_i(c) for some i: the p-values cross the boundary b(c)
    (Noe, Ann. Math. Statist. 43, 1972; Moscovich, Nadler & Spiegelman,
    EJS 10, 2016).  Where b_i(c) <= P_MIN no clamped p_(i) lies below it,
    and lambda_i is 0, which no L_i exceeds."""
    c = np.asarray(cvs, dtype=float)[:, None]
    b = _hc_boundary(c, n) if kind is StatisticKind.HC else _bj_boundary(c, n)
    return np.where(b > P_MIN, np.log1p(-b), 0.0)


def _row_stats(
    p: np.ndarray, n: int, kinds: tuple[StatisticKind, ...], scratch=None, log1m=None
) -> dict[StatisticKind, np.ndarray]:
    """Requested statistics for every row of p, whose first n // 2 columns
    are the sorted lower half of a sample of n p-values, and the only
    columns read: the engine passes the (batch, n // 2) lower halves it
    samples, a one-sample call the whole (1, n) sorted sample.

    `log1m`, (batch, n // 2), holds log(1 - p) of those columns as the
    sampler formed it.  The log LR kernel reads it, and the kernels then
    write over it as scratch; without it that kernel forms log1p(-p).
    `scratch` holds a float and a bool array, each (rows, n // 2) with
    rows >= batch, of which the first `batch` rows are used.  Without them
    each kernel allocates its own.  BJ and ALR run before HC, so HC can
    reuse both float buffers.
    """
    m = n // 2
    pm = p[:, :m]
    ell = mask = None
    if scratch is not None:
        ell, mask = (buf[: len(p)] for buf in scratch)
    # keyed in HC, BJ, ALR order, whatever order the kernels run in
    out = dict.fromkeys(k for k in StatisticKind if k in kinds)
    if StatisticKind.BJ in kinds or StatisticKind.ALR in kinds:
        ell = _log_lr_rows(pm, n, log1m, ell, mask)
        if StatisticKind.BJ in kinds:
            out[StatisticKind.BJ] = ell.max(axis=1)
        if StatisticKind.ALR in kinds:
            out[StatisticKind.ALR] = _log_alr_rows(ell, n, log1m)
    if StatisticKind.HC in kinds:
        out[StatisticKind.HC] = _hc_rows(pm, n, ell, log1m)
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
