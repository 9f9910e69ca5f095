"""Size tables and power curves, plus their CSV serializations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .calibration import (
    CalibrationMethod,
    NullSample,
    _check_alpha,
    alr_limit_cv,
    check_limit_request,
    check_tail,
    empirical_cv,
    evi_cv,
    evii_cv,
    thresh_cv,
)
from .errors import ConfigError, DomainError, IncompatibleMethod, InsufficientReplicates
from .mixture import mixture_from
from .stats import StatisticKind

SIZE_HEADER = "n,kind,method,alpha,size,R,seed"
POWER_HEADER = "beta,kind,power,n,R_cal,R_pow,cv,seed"

_METHOD_KINDS = {
    CalibrationMethod.EMPIRICAL: frozenset(StatisticKind),
    CalibrationMethod.THRESH: frozenset({StatisticKind.HC, StatisticKind.BJ}),
    CalibrationMethod.EVI: frozenset({StatisticKind.HC, StatisticKind.BJ}),
    CalibrationMethod.EVII: frozenset({StatisticKind.HC, StatisticKind.BJ}),
    CalibrationMethod.CAL1: frozenset({StatisticKind.ALR}),
    CalibrationMethod.CAL2: frozenset({StatisticKind.ALR}),
}

# The calibrations that need no simulation: cv(kind, n, alpha).
_CLOSED_FORMS = {
    CalibrationMethod.THRESH: lambda kind, n, alpha: thresh_cv(kind, n),
    CalibrationMethod.EVI: evi_cv,
    CalibrationMethod.EVII: evii_cv,
}


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
    value computed, before the first null simulation.
    """
    if not methods or not alphas:
        raise ConfigError("a size table needs at least one method and one level")
    for n in ns:
        engine._check_request(n, reps, kinds)
    for method in methods:
        for kind in kinds:
            if kind not in _METHOD_KINDS[method]:
                raise IncompatibleMethod(
                    f"method {method.value} does not calibrate {kind.value}"
                )
        for alpha in alphas:
            _check_alpha(alpha)
            if method is CalibrationMethod.EMPIRICAL:
                check_tail(reps, alpha)
            elif method in (CalibrationMethod.CAL1, CalibrationMethod.CAL2):
                check_limit_request(method, alpha, limit_reps, limit_n_for_l, limit_grid)
    closed = {
        (n, kind, method, alpha): _CLOSED_FORMS[method](kind, n, alpha)
        for n in ns
        for kind in kinds
        for method in methods
        if method in _CLOSED_FORMS
        for alpha in alphas
    }
    rows: list[SizeTableRow] = []
    for n in ns:
        stats = engine.null_statistics(n, reps, master_seed, tuple(kinds), threads=threads)
        sorted_stats = {k: np.sort(stats[k]) for k in kinds}
        for kind in kinds:
            sample = NullSample(
                kind=kind, n=n, replicates=sorted_stats[kind], master_seed=master_seed
            )
            for method in methods:
                for alpha in alphas:
                    if method is CalibrationMethod.EMPIRICAL:
                        cv = empirical_cv(sample, alpha)
                    elif method in _CLOSED_FORMS:
                        cv = closed[n, kind, method, alpha]
                    else:
                        cv = alr_limit_cv(
                            method,
                            alpha,
                            limit_reps,
                            master_seed,
                            n_for_l=limit_n_for_l,
                            grid_size=limit_grid,
                            threads=threads,
                        )
                    realized = float(np.mean(stats[kind] > cv))
                    rows.append(
                        SizeTableRow(
                            n=n,
                            kind=kind,
                            method=method,
                            nominal_alpha=float(alpha),
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
    if not betas:
        raise DomainError("beta grid must be nonempty")
    specs = [mixture_from(n, beta) for beta in betas]
    check_tail(reps_cal, _check_alpha(alpha))
    if reps_pow < 1:
        raise InsufficientReplicates(f"need at least one power replicate, got {reps_pow}")
    null_stats = engine.null_statistics(n, reps_cal, master_seed, tuple(kinds), threads=threads)
    cvs = {
        kind: empirical_cv(
            NullSample(
                kind=kind,
                n=n,
                replicates=np.sort(null_stats[kind]),
                master_seed=master_seed,
            ),
            alpha,
        )
        for kind in kinds
    }
    # grid point k runs on stream sub-range k
    alts = engine.alternative_grid(
        specs, reps_pow, master_seed, kinds=tuple(kinds), threads=threads
    )
    points: list[PowerCurvePoint] = []
    for beta, alt in zip(betas, alts):
        for kind in kinds:
            points.append(
                PowerCurvePoint(
                    beta=float(beta),
                    kind=kind,
                    power=float(np.mean(alt[kind] > cvs[kind])),
                    n=n,
                    reps_cal=reps_cal,
                    reps_pow=reps_pow,
                    cv_used=cvs[kind],
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
