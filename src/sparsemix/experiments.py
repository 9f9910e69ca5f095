"""Size tables and power curves, plus their CSV serializations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calibration, engine
from .calibration import (
    _CLOSED_FORMS,
    _METHOD_KINDS,
    CalibrationMethod,
    _closed_form_cv,
    check_limit_request,
    check_tail,
    empirical_cv,
)
from .errors import ConfigError, DomainError, IncompatibleMethod, convert
from .mixture import mixture_from
from .stats import StatisticKind

SIZE_HEADER = "n,kind,method,alpha,size,R,seed"
POWER_HEADER = "beta,kind,power,n,R_cal,R_pow,cv,seed"


@dataclass(frozen=True)
class SizeTableRow:
    n: int
    kind: StatisticKind
    method: CalibrationMethod
    nominal_alpha: float
    realized_size: float
    reps: int
    master_seed: int


@dataclass(frozen=True)
class PowerCurvePoint:
    beta: float
    kind: StatisticKind
    power: float
    n: int
    reps_cal: int
    reps_pow: int
    cv_used: float
    master_seed: int


def beta_grid_default() -> list[float]:
    """Sparsity grid 0.55, 0.60, ..., 1.00."""
    return [(11 + k) / 20.0 for k in range(10)]


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _boundary_exceedances(n, kinds, closed: dict, reps, master_seed, threads: int):
    """exceed(kind, cv): which of `reps` null replicates have a statistic
    above cv, one of the closed-form critical values closed[n, kind, ...],
    as null_statistics' replicates would give it, read from the levels of
    `engine.null_levels`.  Equal values are merged, and a value below zero
    is exceeded by every replicate: only BJ's may be, and BJ >= 0."""
    ascending = {
        kind: sorted({cv for key, cv in closed.items() if key[:2] == (n, kind) and cv >= 0.0})
        for kind in kinds
    }
    wanted = {kind: cvs for kind, cvs in ascending.items() if cvs}
    levels = engine.null_levels(n, reps, master_seed, wanted, threads=threads) if wanted else {}

    def exceed(kind, cv):
        if cv < 0.0:
            return np.ones(reps, dtype=bool)
        return levels[kind] > ascending[kind].index(cv)

    return exceed


def size_table(
    ns: list[int],
    kinds: list[StatisticKind],
    methods: list[CalibrationMethod],
    alphas: list[float],
    reps: int,
    master_seed: int,
    *,
    threads: int = 0,
    limit_reps: int = 100_000,
    limit_n_for_l: int = 100_000,
    limit_grid: int = 4096,
) -> list[SizeTableRow]:
    """Realized null rejection rates for every (n, kind, method, alpha) cell.

    Every requested method must apply to every requested kind; mixed requests
    (e.g. thresh with alr) are rejected rather than silently skipped.  Every
    n and (method, alpha) cell is checked, and every closed-form critical
    value computed, before the first simulation.  Each limit-law method is
    then drawn once, for every n and level, before the null passes.

    When every method is a closed form, each n is one `engine.null_levels`
    pass: a cell's size is the share of replicates whose level reaches its
    critical value, bitwise what the statistics of `engine.null_statistics`
    give.  Any other request makes one `engine.null_statistics` pass an n
    and compares its statistics with each cell's critical value.
    """
    ns, methods, alphas, reps, master_seed, threads, limit_reps, limit_n_for_l, limit_grid = (
        convert(ns=ns, methods=methods, alphas=alphas, reps=reps, master_seed=master_seed,
                threads=threads, limit_reps=limit_reps, limit_n_for_l=limit_n_for_l,
                limit_grid=limit_grid))
    if len(ns) == 0 or len(methods) == 0 or len(alphas) == 0:
        raise ConfigError("a size table needs at least one n, one method and one level")
    for n in ns:
        kinds = engine._check_request(n, kinds)
    for method in methods:
        for kind in kinds:
            if kind not in _METHOD_KINDS[method]:
                raise IncompatibleMethod(f"{method.value} does not calibrate {kind.value}")
        for alpha in alphas:
            if method is CalibrationMethod.EMPIRICAL:
                check_tail(reps, alpha)
            elif method in (CalibrationMethod.CAL1, CalibrationMethod.CAL2):
                check_limit_request(method, alpha, limit_reps, limit_n_for_l, limit_grid)
    closed = {
        (n, kind, method, alpha): _closed_form_cv(method, kind, n, alpha)
        for n in ns
        for kind in kinds
        for method in methods
        if method in _CLOSED_FORMS
        for alpha in alphas
    }
    # looked up in its module, where perfbench wraps it
    limit_draws = {
        method: calibration._limit_draws(method, limit_reps, limit_n_for_l, limit_grid,
                                         master_seed, threads)
        for method in methods
        if method in (CalibrationMethod.CAL1, CalibrationMethod.CAL2)
    }
    closed_only = all(method in _CLOSED_FORMS for method in methods)
    rows: list[SizeTableRow] = []
    for n in ns:
        if closed_only:
            exceed = _boundary_exceedances(n, kinds, closed, reps, master_seed, threads)
        else:
            stats = engine.null_statistics(n, reps, master_seed, kinds, threads=threads)

            def exceed(kind, cv):
                return stats[kind] > cv

        for kind in kinds:
            for method in methods:
                for alpha in alphas:
                    if method is CalibrationMethod.EMPIRICAL:
                        cv = empirical_cv(stats[kind], alpha)
                    elif method in _CLOSED_FORMS:
                        cv = closed[n, kind, method, alpha]
                    else:
                        cv = math.log(empirical_cv(limit_draws[method], alpha))
                    realized = float(np.mean(exceed(kind, cv)))
                    rows.append(
                        SizeTableRow(
                            n=n,
                            kind=kind,
                            method=method,
                            nominal_alpha=alpha,
                            realized_size=realized,
                            reps=reps,
                            master_seed=master_seed,
                        )
                    )
    return rows


def power_curve(
    n: int,
    betas: list[float],
    kinds: list[StatisticKind],
    alpha: float,
    reps_cal: int,
    reps_pow: int,
    master_seed: int,
    *,
    threads: int = 0,
) -> list[PowerCurvePoint]:
    """Empirically calibrated rejection rates along a sparsity grid.

    Critical values come from reps_cal null replicates at level alpha; each
    grid point then draws reps_pow alternative replicates on its own stream
    sub-range, and the tasks of every grid point share one pool queue.
    """
    n, betas, alpha, reps_cal, reps_pow, master_seed, threads = convert(
        n=n, betas=betas, alpha=alpha, reps_cal=reps_cal, reps_pow=reps_pow,
        master_seed=master_seed, threads=threads)
    if len(betas) == 0:
        raise DomainError("beta grid must be nonempty")
    specs = [mixture_from(n, beta) for beta in betas]
    check_tail(reps_cal, alpha)
    null_stats = engine.null_statistics(n, reps_cal, master_seed, kinds, threads=threads)
    cvs = {kind: empirical_cv(stat, alpha) for kind, stat in null_stats.items()}
    # grid point k runs on stream sub-range k
    alts = engine.alternative_grid(
        specs, reps_pow, master_seed, kinds=tuple(cvs), threads=threads
    )
    points: list[PowerCurvePoint] = []
    for beta, alt in zip(betas, alts):
        for kind, cv in cvs.items():
            points.append(
                PowerCurvePoint(
                    beta=beta,
                    kind=kind,
                    power=float(np.mean(alt[kind] > cv)),
                    n=n,
                    reps_cal=reps_cal,
                    reps_pow=reps_pow,
                    cv_used=cv,
                    master_seed=master_seed,
                )
            )
    return points


def size_table_csv(rows: list[SizeTableRow]) -> str:
    """CSV text (header + one row per cell, floats at 6 significant digits)."""
    lines = [SIZE_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{r.kind.value},{r.method.value},{_fmt(r.nominal_alpha)},"
            f"{_fmt(r.realized_size)},{r.reps},{r.master_seed}"
        )
    return "\n".join(lines) + "\n"


def power_curve_csv(points: list[PowerCurvePoint]) -> str:
    """CSV text (header + one row per grid point and kind)."""
    lines = [POWER_HEADER]
    for p in points:
        lines.append(
            f"{_fmt(p.beta)},{p.kind.value},{_fmt(p.power)},{p.n},"
            f"{p.reps_cal},{p.reps_pow},{_fmt(p.cv_used)},{p.master_seed}"
        )
    return "\n".join(lines) + "\n"
