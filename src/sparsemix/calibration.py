"""Critical values: Monte Carlo, closed-form asymptotics, and the ALR limit law.

This module alone turns a method into a critical value, by four routes:

* empirical_cv      -- upper-alpha order statistic of replicates, any order
* thresh_cv         -- slowly-growing threshold sqrt(2 loglog n) / loglog n
* evi_cv / evii_cv  -- two extreme-value refinements for HC and BJ
* alr_limit_cv      -- empirical_cv of a sampled ALR limit law (cal1/cal2)

The three closed forms share one body, `_closed_form_cv`: a quantile q that
BJ takes as its cv and HC as sqrt(2q).  ALR critical values are kept in the
log domain throughout, matching log_alr.

No draw outlives its call: `_limit_draws` returns a new array from one
simulation, so a caller with several levels draws once and takes
empirical_cv at each.  Only `_bridge_coeffs`' read-only tables are cached.

A method is a CalibrationMethod, whose constructor also takes its value in any
case and padding and raises ConfigError otherwise.  _METHOD_KINDS alone states
which kinds each method calibrates, and _CLOSED_FORMS which methods need no
simulation; size_table, the closed forms and the limit checks read them.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import engine
from .errors import (
    AlphaOutOfRange,
    ConfigError,
    DomainError,
    IncompatibleMethod,
    InsufficientReplicates,
    NegativeQ,
    NonFinite,
    OutOfRange,
    UnsupportedStatistic,
)
from .rng import DOMAIN_CAL1, DOMAIN_CAL2, U_FLOOR, Rows, exponentials_from_uniforms
from .stats import StatisticKind

_LOG_4PI = math.log(4.0 * math.pi)


class CalibrationMethod(str, enum.Enum):
    EMPIRICAL = "empirical"
    THRESH = "thresh"
    EVI = "evi"
    EVII = "evii"
    CAL1 = "cal1"
    CAL2 = "cal2"

    @classmethod
    def _missing_(cls, token):
        if isinstance(token, str) and token.strip().lower() in cls._value2member_map_:
            return cls(token.strip().lower())
        raise ConfigError(
            f"unknown calibration method {token!r}; expected one of "
            "empirical, thresh, evi, evii, cal1, cal2"
        )


_METHOD_KINDS = {
    CalibrationMethod.EMPIRICAL: frozenset(StatisticKind),
    CalibrationMethod.THRESH: frozenset({StatisticKind.HC, StatisticKind.BJ}),
    CalibrationMethod.EVI: frozenset({StatisticKind.HC, StatisticKind.BJ}),
    CalibrationMethod.EVII: frozenset({StatisticKind.HC, StatisticKind.BJ}),
    CalibrationMethod.CAL1: frozenset({StatisticKind.ALR}),
    CalibrationMethod.CAL2: frozenset({StatisticKind.ALR}),
}
# The methods whose critical value is a closed form in n and alpha.
_CLOSED_FORMS = frozenset(
    {CalibrationMethod.THRESH, CalibrationMethod.EVI, CalibrationMethod.EVII}
)


def simulate_null_distribution(
    kind: StatisticKind,
    n: int,
    reps: int,
    master_seed: int,
    *,
    threads: int = 0,
) -> np.ndarray:
    """`reps` null replicates of the statistic, sorted and read-only."""
    [reps] = engine.check_integers(reps=reps)
    if reps < 100:
        raise InsufficientReplicates(f"need reps >= 100, got {reps}")
    [stats] = engine.null_statistics(n, reps, master_seed, (kind,), threads=threads).values()
    replicates = np.sort(stats)
    replicates.flags.writeable = False
    return replicates


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def quantile_index(reps: int, alpha: float) -> int:
    """1-based index of the upper-alpha empirical quantile: ceil((1-alpha)(R+1)), capped at R.

    Uses exact rational arithmetic on alpha's decimal form; float rounding
    would put e.g. ceil(0.95 * 20) at 20 instead of 19.
    """
    _check_alpha(alpha)
    if reps < 1:
        raise InsufficientReplicates(f"need reps >= 1, got {reps}")
    k = math.ceil((1 - Fraction(str(alpha))) * (reps + 1))
    return min(k, reps)


def check_tail(reps: int, alpha: float) -> None:
    """Refuse a level whose upper tail would hold fewer than 5 of reps replicates."""
    if reps * alpha < 5.0:
        raise InsufficientReplicates(
            f"reps * alpha = {reps * alpha:.3g} < 5; tail too sparse to calibrate"
        )


def empirical_cv(replicates: np.ndarray, alpha: float) -> float:
    """Upper-alpha critical value from null replicates in any order: their
    quantile_index(R, alpha)-th smallest value."""
    r = np.asarray(replicates, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise OutOfRange("replicates must be a nonempty vector")
    if not np.all(np.isfinite(r)):
        raise NonFinite("replicates must be finite")
    alpha = _check_alpha(alpha)
    check_tail(r.size, alpha)
    k = quantile_index(r.size, alpha) - 1
    return float(np.partition(r, k)[k])


def _closed_form_cv(method: CalibrationMethod, kind, n: int, alpha) -> float:
    """The critical value of a method of _CLOSED_FORMS: its quantile q for BJ,
    sqrt(2q) for HC, with llog = loglog n and g = log(-log(1 - alpha)):

    * thresh -- q = llog (alpha is not read)
    * evi    -- q = llog + (1/2) log llog - (1/2) log 4pi - g
    * evii   -- q = c^2 / (2 b^2) - g, with c = 2 llog + (1/2) log llog -
      (1/2) log 4pi and b^2 = 2 llog
    """
    kind = StatisticKind(kind)
    if kind not in _METHOD_KINDS[method]:
        raise UnsupportedStatistic(f"{method.value} calibrates hc and bj; alr needs cal1/cal2")
    if n < 16:
        raise DomainError(f"asymptotic formulas need n >= 16 (loglog n > 0), got {n}")
    llog = math.log(math.log(n))
    if method is CalibrationMethod.THRESH:
        q = llog
    else:
        alpha = _check_alpha(alpha)
        if method is CalibrationMethod.EVI:
            q = llog + 0.5 * math.log(llog) - 0.5 * _LOG_4PI - math.log(-math.log1p(-alpha))
        else:
            c = 2.0 * llog + 0.5 * math.log(llog) - 0.5 * _LOG_4PI
            b2 = 2.0 * llog
            q = c * c / (2.0 * b2) - math.log(-math.log1p(-alpha))
    if kind is StatisticKind.BJ:
        return q
    if q <= 0.0:
        raise NegativeQ(
            f"{method.value.upper()} quantile q = {q:.6g} <= 0 at n={n}, alpha={alpha}"
        )
    return math.sqrt(2.0 * q)


def thresh_cv(kind: StatisticKind, n: int) -> float:
    """Slowly-growing threshold: sqrt(2 loglog n) for HC, loglog n for BJ."""
    return _closed_form_cv(CalibrationMethod.THRESH, kind, n, None)


def evi_cv(kind: StatisticKind, n: int, alpha: float) -> float:
    """First extreme-value approximation; `_closed_form_cv` gives its q."""
    return _closed_form_cv(CalibrationMethod.EVI, kind, n, alpha)


def evii_cv(kind: StatisticKind, n: int, alpha: float) -> float:
    """Second extreme-value approximation; `_closed_form_cv` gives its q."""
    return _closed_form_cv(CalibrationMethod.EVII, kind, n, alpha)


# --- ALR limit law -----------------------------------------------------------
#
# The limit of ALR_n is (1/2) (e^E / (e E))^{1(E<1)} + (1/2) W with E ~ Exp(1).
# cal1 takes W = exp((Z+)^2 / 2), Z standard normal; cal2 replaces W by the
# finite-n bridge functional
#     L_n = (1/log n) int_{1/n}^{1/2} (1/t) exp(B+(t)^2 / (2t(1-t))) dt
# evaluated by the trapezoid rule in u = log t on a log-spaced grid with exact
# Brownian-bridge transitions.  Writing Y(t) = B(t) / (1 - t), the
# transitions collapse to Y_j = Y_{j-1} + c_j Z_j, so each path is one
# cumulative sum of standard normals, and the integrand's exponent is
# B+(t)^2 / (2t(1-t)) = Y+(t)^2 (1-t) / (2t).
#
# A limit-law draw takes E from one uniform of its row, and Z (cal1) or the
# grid + 1 increments of the bridge (cal2) from standard normals drawn by
# numpy's ziggurat sampler; the `rng` docstring gives their streams.


def _exp_factor(e: np.ndarray) -> np.ndarray:
    """(e^E / (e E))^{1(E < 1)} elementwise."""
    val = np.exp(e - 1.0) / np.fmax(e, U_FLOOR)
    return np.where(e < 1.0, val, 1.0)


def _cal1_rows(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """cal1 limit draws from uniforms u, which drive E, and standard normals
    z, elementwise."""
    e = exponentials_from_uniforms(np.fmax(u, U_FLOOR))
    zp = np.fmax(z, 0.0)
    return 0.5 * _exp_factor(e) + 0.5 * np.exp(0.5 * zp * zp)


@lru_cache(maxsize=16)
def _bridge_coeffs(n: int, grid_size: int):
    """Log-spaced grid on [1/n, 1/2] plus transition and trapezoid weights.

    Returns (t, c, w, k), read-only: grid points, cumsum coefficients for the
    telescoped bridge transitions, trapezoid weights in u = log t, and the
    integrand's scale (1 - t) / (2 t) on the squared Y+.
    """
    u = np.linspace(math.log(1.0 / n), math.log(0.5), grid_size + 1)
    t = np.exp(u)
    t[0] = 1.0 / n
    t[-1] = 0.5
    c = np.empty(grid_size + 1)
    c[0] = math.sqrt(t[0] / (1.0 - t[0]))
    c[1:] = np.sqrt(np.diff(t) / ((1.0 - t[1:]) * (1.0 - t[:-1])))
    du = np.diff(u)
    w = np.zeros(grid_size + 1)
    w[:-1] += 0.5 * du
    w[1:] += 0.5 * du
    k = (1.0 - t) / (2.0 * t)
    for table in (t, c, w, k):
        table.flags.writeable = False
    return t, c, w, k


def _check_bridge_args(n: int, grid_size: int) -> None:
    if n < 16:
        raise DomainError(f"bridge functional needs n >= 16, got {n}")
    if grid_size < 256:
        raise DomainError(f"grid_size must be >= 256, got {grid_size}")


def _ln_rows(
    n: int, grid_size: int, z: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """L_n draws from a (batch, grid_size + 1) matrix of standard normals, one
    bridge path a row.  The integrand is formed in `out` (z itself may be
    given; a new array by default)."""
    _, c, w, k = _bridge_coeffs(n, grid_size)
    y = np.multiply(z, c, out=out)
    np.cumsum(y, axis=1, out=y)
    np.fmax(y, 0.0, out=y)
    y *= y
    y *= k
    np.exp(y, out=y)
    y *= w
    return np.sum(y, axis=1) / math.log(n)


def _cal2_rows(n: int, grid_size: int, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """cal2 limit draws from uniforms u, which drive E, and a (batch,
    grid_size + 1) matrix z of standard normals, which drive the bridge and
    whose integrand is formed in their place."""
    e = exponentials_from_uniforms(np.fmax(u, U_FLOOR))
    return 0.5 * _exp_factor(e) + 0.5 * _ln_rows(n, grid_size, z, out=z)


# Doubles of temporaries a cal1 row makes, which sizes its blocks at 4096 rows.
_CAL1_ROW_ELEMENTS = 32


def _cal1_task(args) -> np.ndarray:
    """cal1 draws start..start+count-1, in blocks of about 4096 rows with a
    reader and a buffer each for E and Z for the whole task, so its
    temporaries stay small."""
    master_seed, start, count = args
    uniforms = Rows(master_seed, DOMAIN_CAL1, 0, start, count, 1)
    normals = Rows(master_seed, DOMAIN_CAL1, 1, start, count, 1, normal=True)
    u, z = np.empty((2, engine.block_rows(count, _CAL1_ROW_ELEMENTS), 1))

    def block(c: int) -> np.ndarray:
        return _cal1_rows(uniforms.read(u[:c])[:, 0], normals.read(z[:c])[:, 0])

    return engine.in_blocks(block, (count,), _CAL1_ROW_ELEMENTS)


def _cal2_task(args) -> np.ndarray:
    """cal2 draws start..start+count-1, in blocks of about
    engine.BLOCK_ELEMENTS normals with a reader and a buffer each for E and
    the bridge for the whole task; the last, shorter block uses their
    leading rows."""
    master_seed, n, grid_size, start, count = args
    width = grid_size + 1
    uniforms = Rows(master_seed, DOMAIN_CAL2, 0, start, count, 1)
    normals = Rows(master_seed, DOMAIN_CAL2, 1, start, count, width, normal=True)
    rows = engine.block_rows(count, width)
    u, z = np.empty((rows, 1)), np.empty((rows, width))

    def block(c: int) -> np.ndarray:
        return _cal2_rows(n, grid_size, uniforms.read(u[:c])[:, 0], normals.read(z[:c]))

    return engine.in_blocks(block, (count,), width)


def check_limit_request(
    variant: CalibrationMethod, alpha: float, reps: int, n_for_l: int, grid_size: int
) -> tuple[CalibrationMethod, float, int, int, int]:
    """Refuse, before any draw, what the limit law cannot calibrate; returns
    the arguments as a CalibrationMethod, a float and three ints."""
    variant = CalibrationMethod(variant)
    reps, n_for_l, grid_size = engine.check_integers(reps=reps, n_for_l=n_for_l,
                                                     grid_size=grid_size)
    if _METHOD_KINDS[variant] != {StatisticKind.ALR}:  # cal1 and cal2 calibrate alr alone
        raise IncompatibleMethod(f"ALR limit calibration is cal1 or cal2, got {variant.value}")
    alpha = _check_alpha(alpha)
    if reps < 10_000:
        raise InsufficientReplicates(f"limit-law calibration needs reps >= 10000, got {reps}")
    check_tail(reps, alpha)
    if variant is CalibrationMethod.CAL2:
        _check_bridge_args(n_for_l, grid_size)
    return variant, alpha, reps, n_for_l, grid_size


def _limit_draws(variant: CalibrationMethod, reps: int, n_for_l: int, grid_size: int,
                 master_seed: int, threads: int) -> np.ndarray:
    """`reps` limit-law draws in row order, from one simulation, in a new
    array; cal1 ignores n_for_l and grid_size."""
    if variant is CalibrationMethod.CAL1:
        task, params = _cal1_task, (master_seed,)
    else:
        task, params = _cal2_task, (master_seed, n_for_l, grid_size)
    [draws] = engine.simulate(task, [params], reps, threads)
    return draws


def alr_limit_cv(
    variant: CalibrationMethod,
    alpha: float,
    reps: int,
    master_seed: int,
    *,
    n_for_l: int = 100_000,
    grid_size: int = 4096,
    threads: int = 0,
) -> float:
    """Upper-alpha critical value for log ALR from one simulation of the
    sampled limit law.  Nothing is cached: a caller with several levels
    draws once with _limit_draws and takes empirical_cv at each, as the
    alr-limit command and size_table do."""
    variant, alpha, reps, n_for_l, grid_size = check_limit_request(variant, alpha, reps,
                                                                   n_for_l, grid_size)
    master_seed = engine.check_seed(master_seed)
    draws = _limit_draws(variant, reps, n_for_l, grid_size, master_seed, threads)
    return math.log(empirical_cv(draws, alpha))
