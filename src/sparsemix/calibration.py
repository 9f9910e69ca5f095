"""Critical values: Monte Carlo, closed-form asymptotics, and the ALR limit law.

Four routes to a critical value:

* empirical_cv      -- upper-alpha order statistic of a simulated null sample
* thresh_cv         -- slowly-growing threshold sqrt(2 loglog n) / loglog n
* evi_cv / evii_cv  -- two extreme-value refinements for HC and BJ
* alr_limit_cv      -- quantile of a sampled ALR limit law (variants cal1/cal2)

ALR critical values are kept in the log domain throughout, matching log_alr.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
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
from .rng import (
    DOMAIN_CAL1,
    DOMAIN_CAL2,
    U_FLOOR,
    exponentials_from_uniforms,
    normals_from_uniforms,
    row_generators,
    uniform_rows,
)
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
    def parse(cls, token: str) -> "CalibrationMethod":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown calibration method {token!r}; expected one of "
                "empirical, thresh, evi, evii, cal1, cal2"
            ) from None


@dataclass(frozen=True)
class NullSample:
    """Sorted null replicates of one statistic at one sample size."""

    kind: StatisticKind
    n: int
    replicates: np.ndarray
    master_seed: int

    def __post_init__(self) -> None:
        r = self.replicates
        if r.ndim != 1 or r.size < 1:
            raise OutOfRange("replicates must be a nonempty vector")
        if not np.all(np.isfinite(r)):
            raise NonFinite("replicates must be finite")
        if np.any(np.diff(r) < 0.0):
            raise OutOfRange("replicates must be sorted ascending")

    @property
    def reps(self) -> int:
        return int(self.replicates.size)


def simulate_null_distribution(
    kind: StatisticKind,
    n: int,
    reps: int,
    master_seed: int,
    *,
    threads: int = 0,
) -> NullSample:
    """Simulate `reps` null replicates of the statistic and sort them."""
    if reps < 100:
        raise InsufficientReplicates(f"need reps >= 100, got {reps}")
    stats = engine.null_statistics(n, reps, master_seed, (kind,), threads=threads)
    return NullSample(
        kind=kind, n=n, replicates=np.sort(stats[kind]), master_seed=master_seed
    )


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


def empirical_cv(sample: NullSample, alpha: float) -> float:
    """Upper-alpha critical value from a simulated null sample."""
    alpha = _check_alpha(alpha)
    reps = sample.reps
    check_tail(reps, alpha)
    return float(sample.replicates[quantile_index(reps, alpha) - 1])


def _check_asymptotic_args(kind: StatisticKind, n: int) -> None:
    if kind is StatisticKind.ALR:
        raise UnsupportedStatistic(
            "asymptotic thresholds apply to hc and bj only; use cal1/cal2 for alr"
        )
    if kind not in (StatisticKind.HC, StatisticKind.BJ):
        raise UnsupportedStatistic(f"unknown statistic kind {kind!r}")
    if n < 16:
        raise DomainError(f"asymptotic formulas need n >= 16 (loglog n > 0), got {n}")


def thresh_cv(kind: StatisticKind, n: int) -> float:
    """Slowly-growing threshold: sqrt(2 loglog n) for HC, loglog n for BJ."""
    _check_asymptotic_args(kind, n)
    llog = math.log(math.log(n))
    if kind is StatisticKind.HC:
        return math.sqrt(2.0 * llog)
    return llog


def evi_cv(kind: StatisticKind, n: int, alpha: float) -> float:
    """First extreme-value approximation.

    q = loglog n + (1/2) logloglog n - (1/2) log 4pi - log(-log(1-alpha));
    BJ uses q directly, HC uses sqrt(2q).
    """
    _check_asymptotic_args(kind, n)
    alpha = _check_alpha(alpha)
    llog = math.log(math.log(n))
    q = llog + 0.5 * math.log(llog) - 0.5 * _LOG_4PI - math.log(-math.log1p(-alpha))
    if kind is StatisticKind.BJ:
        return q
    if q <= 0.0:
        raise NegativeQ(f"EVI quantile q = {q:.6g} <= 0 at n={n}, alpha={alpha}")
    return math.sqrt(2.0 * q)


def evii_cv(kind: StatisticKind, n: int, alpha: float) -> float:
    """Second extreme-value approximation.

    With c_n = 2 loglog n + (1/2) logloglog n - (1/2) log 4pi and
    b_n^2 = 2 loglog n, q = c_n^2 / (2 b_n^2) - log(-log(1-alpha)).
    """
    _check_asymptotic_args(kind, n)
    alpha = _check_alpha(alpha)
    llog = math.log(math.log(n))
    c = 2.0 * llog + 0.5 * math.log(llog) - 0.5 * _LOG_4PI
    b2 = 2.0 * llog
    q = c * c / (2.0 * b2) - math.log(-math.log1p(-alpha))
    if kind is StatisticKind.BJ:
        return q
    if q <= 0.0:
        raise NegativeQ(f"EVII quantile q = {q:.6g} <= 0 at n={n}, alpha={alpha}")
    return math.sqrt(2.0 * q)


@dataclass(frozen=True)
class CriticalValueTable:
    """Critical values of one statistic at one n, over a grid of alphas.

    entries is ((alpha, cv), ...) with alphas strictly increasing.  reps and
    master_seed record Monte Carlo provenance and are None for closed-form
    methods.
    """

    kind: StatisticKind
    n: int
    method: CalibrationMethod
    entries: tuple[tuple[float, float], ...]
    reps: int | None = None
    master_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.entries:
            raise OutOfRange("table needs at least one (alpha, cv) entry")
        alphas = [a for a, _ in self.entries]
        cvs = [c for _, c in self.entries]
        for a in alphas:
            _check_alpha(a)
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise OutOfRange("alphas must be strictly increasing")
        if not all(math.isfinite(c) for c in cvs):
            raise NonFinite("critical values must be finite")
        if self.method is CalibrationMethod.THRESH:
            if any(c != cvs[0] for c in cvs):
                raise OutOfRange("thresh critical values are alpha-independent")
        # ties can occur in tiny Monte Carlo samples, so only require monotone
        elif any(b > a for a, b in zip(cvs, cvs[1:])):
            raise OutOfRange("critical values must be non-increasing in alpha")

    def to_json(self) -> str:
        payload = {
            "kind": self.kind.value,
            "n": self.n,
            "method": self.method.value,
            "R": self.reps,
            "master_seed": self.master_seed,
            "entries": [{"alpha": a, "cv": c} for a, c in self.entries],
        }
        return json.dumps(payload, sort_keys=True)


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
# A cal1 draw inverts 2 uniforms of its row.  A cal2 draw takes its row's
# first uniform for E and the next grid + 1 standard normals, drawn by numpy's
# ziggurat sampler (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000), for the
# bridge.  The `rng` docstring gives where a row's draws sit in its stream.


def _exp_factor(e: np.ndarray) -> np.ndarray:
    """(e^E / (e E))^{1(E < 1)} elementwise."""
    val = np.exp(e - 1.0) / np.fmax(e, U_FLOOR)
    return np.where(e < 1.0, val, 1.0)


def _cal1_rows(u: np.ndarray) -> np.ndarray:
    """cal1 limit draws from a (batch, 2) uniform matrix.  Z+ is 0 wherever
    the second uniform is at most 1/2, so only the others are inverted."""
    e = exponentials_from_uniforms(np.fmax(u[:, 0], U_FLOOR))
    upper = u[:, 1] > 0.5
    zp = np.zeros(len(u))
    zp[upper] = normals_from_uniforms(u[upper, 1])
    return 0.5 * _exp_factor(e) + 0.5 * np.exp(0.5 * zp * zp)


@lru_cache(maxsize=16)
def _bridge_coeffs(n: int, grid_size: int):
    """Log-spaced grid on [1/n, 1/2] plus transition and trapezoid weights.

    Returns (t, c, w, k): grid points, cumsum coefficients for the
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


def _cal2_rows(n: int, grid_size: int, draws: np.ndarray) -> np.ndarray:
    """cal2 limit draws from a (batch, grid_size + 2) matrix: a uniform that
    drives E, then grid_size + 1 standard normals that drive the bridge,
    whose integrand is formed in their place."""
    e = exponentials_from_uniforms(np.fmax(draws[:, 0], U_FLOOR))
    ln = _ln_rows(n, grid_size, draws[:, 1:], out=draws[:, 1:])
    return 0.5 * _exp_factor(e) + 0.5 * ln


# Doubles of temporaries a cal1 row makes, which sizes its blocks at 4096 rows.
_CAL1_ROW_ELEMENTS = 32


def _cal1_task(args) -> np.ndarray:
    """cal1 draws start..start+count-1, in blocks of about 4096 rows with one
    uniform buffer for the whole task, so its temporaries stay small."""
    master_seed, start, count = args
    buf = np.empty((engine.block_rows(count, _CAL1_ROW_ELEMENTS), 2))

    def block(s: int, c: int) -> np.ndarray:
        return _cal1_rows(uniform_rows(master_seed, DOMAIN_CAL1, 0, s, c, 2, out=buf[:c]))

    return engine.in_blocks(block, (count,), start, _CAL1_ROW_ELEMENTS)


def _cal2_draw(generator, row: np.ndarray) -> None:
    """Draw one cal2 row: a random() that drives E, then the
    row.size - 1 standard_normal() that drive the bridge."""
    row[0] = generator.random()
    generator.standard_normal(out=row[1:])


def _cal2_task(args) -> np.ndarray:
    """cal2 draws start..start+count-1, in blocks of about
    engine.BLOCK_ELEMENTS draws with one buffer for the whole task; the last,
    shorter block uses its leading rows.  The rows come from
    `row_generators` in order, so the blocks run in order too."""
    master_seed, n, grid_size, start, count = args
    width = grid_size + 2
    buf = np.empty((engine.block_rows(count, width), width))
    generators = row_generators(master_seed, DOMAIN_CAL2, 0, start, count,
                                lambda generator: _cal2_draw(generator, buf[0]))

    def block(s: int, c: int) -> np.ndarray:
        for row, generator in zip(buf[:c], generators):
            _cal2_draw(generator, row)
        return _cal2_rows(n, grid_size, buf[:c])

    return engine.in_blocks(block, (count,), start, width)


def check_limit_request(
    variant: CalibrationMethod, alpha: float, reps: int, n_for_l: int, grid_size: int
) -> float:
    """Refuse a limit-law request that cannot be calibrated, before any draw;
    returns alpha as a float."""
    if variant not in (CalibrationMethod.CAL1, CalibrationMethod.CAL2):
        raise IncompatibleMethod(
            f"ALR limit calibration supports cal1/cal2, got {variant!r}"
        )
    alpha = _check_alpha(alpha)
    if reps < 10_000:
        raise InsufficientReplicates(f"limit-law calibration needs reps >= 10000, got {reps}")
    check_tail(reps, alpha)
    if variant is CalibrationMethod.CAL2:
        _check_bridge_args(n_for_l, grid_size)
    return alpha


@lru_cache(maxsize=4)
def _limit_entry(
    variant: CalibrationMethod, reps: int, n_for_l: int, grid_size: int, master_seed: int
) -> list[np.ndarray]:
    """The cached draws of one limit-law configuration, filled in by
    _limit_draws; empty until its simulation completes.  The draws do not
    depend on the worker count, so it is not part of the key."""
    return []


def _limit_draws(
    variant: CalibrationMethod,
    reps: int,
    n_for_l: int,
    grid_size: int,
    master_seed: int,
    threads: int,
) -> np.ndarray:
    """Sorted limit-law draws, cached, shared and read-only.

    cal1 ignores n_for_l and grid_size; pass 0 for both so that one cache
    entry serves every call.
    """
    entry = _limit_entry(variant, reps, n_for_l, grid_size, master_seed)
    if not entry:
        if variant is CalibrationMethod.CAL1:
            task, params = _cal1_task, (master_seed,)
        else:
            task, params = _cal2_task, (master_seed, n_for_l, grid_size)
        [draws] = engine.simulate(task, [params], reps, threads)
        draws = np.sort(draws)
        draws.flags.writeable = False
        entry.append(draws)
    return entry[0]


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
    """Upper-alpha critical value for log ALR from the sampled limit law."""
    alpha = check_limit_request(variant, alpha, reps, n_for_l, grid_size)
    if variant is CalibrationMethod.CAL1:
        n_for_l = grid_size = 0
    draws = _limit_draws(variant, reps, n_for_l, grid_size, master_seed, threads)
    raw = float(draws[quantile_index(reps, alpha) - 1])
    return math.log(raw)
