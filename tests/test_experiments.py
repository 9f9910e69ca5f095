"""Size tables and power curves."""

import math

import numpy as np
import pytest

from sparsemix import (
    AlphaOutOfRange,
    CalibrationMethod,
    ConfigError,
    DomainError,
    IncompatibleMethod,
    InsufficientReplicates,
    MixtureSpec,
    NegativeQ,
    PowerCurvePoint,
    SizeTableRow,
    StatisticKind,
    beta_grid_default,
    empirical_cv,
    mixture_from,
    power_curve,
    power_curve_csv,
    quantile_index,
    rho_star,
    size_table,
    size_table_csv,
)
from sparsemix import calibration, engine
from sparsemix.experiments import POWER_HEADER, SIZE_HEADER

HC = StatisticKind.HC
BJ = StatisticKind.BJ
ALR = StatisticKind.ALR
EMP = CalibrationMethod.EMPIRICAL


def test_beta_grid_default():
    grid = beta_grid_default()
    assert len(grid) == 10
    assert grid[0] == 0.55 and grid[-1] == 1.0
    steps = np.diff(grid)
    np.testing.assert_allclose(steps, 0.05, rtol=0, atol=1e-15)
    for beta in grid:
        assert rho_star(beta) > 0.0  # every grid point is a valid alternative


# ---------------------------------------------------------------------------
# size tables

def test_size_table_rejects_mixed_methods():
    with pytest.raises(IncompatibleMethod):
        size_table([100], [ALR], [CalibrationMethod.THRESH], [0.05], 200, 0)
    with pytest.raises(IncompatibleMethod):
        size_table([100], [HC], [CalibrationMethod.CAL1], [0.05], 200, 0)


CAL1, CAL2 = CalibrationMethod.CAL1, CalibrationMethod.CAL2
THRESH, EVI = CalibrationMethod.THRESH, CalibrationMethod.EVI


@pytest.mark.parametrize(
    "error,call,args,kwargs",
    [
        pytest.param(InsufficientReplicates, size_table,
                     ([1000], [ALR], [CAL1], [0.05], 2000, 1), {"limit_reps": 5000},
                     id="cal1-limit-reps"),
        pytest.param(InsufficientReplicates, size_table,
                     ([1000], [ALR], [CAL1], [1e-4], 2000, 1), {"limit_reps": 10_000},
                     id="cal1-thin-tail"),
        pytest.param(DomainError, size_table,
                     ([1000], [ALR], [CAL2], [0.05], 2000, 1), {"limit_grid": 100},
                     id="cal2-grid"),
        pytest.param(ConfigError, size_table, ([], [HC], [THRESH], [0.05], 1000, 1), {},
                     id="no-ns"),
        pytest.param(ConfigError, size_table, ([100], [], [EMP], [0.05], 2000, 1), {},
                     id="no-kinds"),
        pytest.param(ConfigError, size_table, ([100], [HC], [], [0.05], 2000, 1), {},
                     id="no-methods"),
        pytest.param(ConfigError, size_table, ([100], [HC], [EMP], [], 2000, 1), {},
                     id="no-alphas"),
        pytest.param(InsufficientReplicates, size_table,
                     ([100], [HC], [EMP], [1e-4], 2000, 1), {}, id="empirical-thin-tail"),
        pytest.param(AlphaOutOfRange, size_table,
                     ([100], [HC], [THRESH], [1.5], 2000, 1), {}, id="thresh-alpha"),
        pytest.param(DomainError, size_table,
                     ([8], [HC], [THRESH], [0.05], 200, 1), {}, id="thresh-small-n"),
        pytest.param(NegativeQ, size_table,
                     ([20], [HC], [EVI], [0.9], 200, 1), {}, id="evi-negative-q"),
        pytest.param(InsufficientReplicates, power_curve,
                     (100, [0.6], [HC], 1e-4, 2000, 50, 1), {}, id="power-thin-tail"),
        pytest.param(AlphaOutOfRange, power_curve,
                     (100, [0.6], [HC], 0.0, 2000, 50, 1), {}, id="power-alpha"),
        pytest.param(InsufficientReplicates, power_curve,
                     (100, [0.6], [HC], 0.05, 2000, 0, 1), {}, id="power-no-reps"),
    ],
)
def test_bad_requests_refused_before_simulating(monkeypatch, error, call, args, kwargs):
    def no_tasks(fn, tasks, threads):
        raise AssertionError("a task ran")

    monkeypatch.setattr(engine, "map_tasks", no_tasks)
    with pytest.raises(error):
        call(*args, threads=1, **kwargs)


def test_size_table_empirical_is_exactly_self_consistent():
    # calibrating and evaluating on the same replicates: size = (R - k)/R
    reps = 2000
    rows = size_table([50], [HC, BJ], [EMP], [0.05, 0.1], reps, 23, threads=1)
    assert len(rows) == 4
    for row in rows:
        k = quantile_index(reps, row.nominal_alpha)
        assert row.realized_size == (reps - k) / reps
        assert abs(row.realized_size - row.nominal_alpha) <= 1.0 / reps + 1e-12


def test_size_table_row_order_and_fields():
    rows = size_table(
        [32, 64],
        [HC],
        [CalibrationMethod.THRESH, CalibrationMethod.EVI],
        [0.05, 0.1],
        200,
        5,
        threads=1,
    )
    keys = [(r.n, r.kind, r.method, r.nominal_alpha) for r in rows]
    assert keys == [
        (n, HC, m, a)
        for n in (32, 64)
        for m in (CalibrationMethod.THRESH, CalibrationMethod.EVI)
        for a in (0.05, 0.1)
    ]
    for r in rows:
        assert r.reps == 200 and r.master_seed == 5
        assert 0.0 <= r.realized_size <= 1.0


def test_size_table_thresh_rows_are_alpha_independent():
    rows = size_table([64], [BJ], [CalibrationMethod.THRESH], [0.05, 0.1], 300, 1, threads=1)
    assert rows[0].realized_size == rows[1].realized_size


CLOSED = [CalibrationMethod.THRESH, CalibrationMethod.EVI, CalibrationMethod.EVII]


@pytest.mark.parametrize("seed", [5, 1729])
def test_closed_form_size_tables_equal_the_statistics_path(monkeypatch, seed):
    # closed forms alone are sized by boundary crossing, with no statistic
    # computed; each size is bitwise that of the statistics at its cv
    reps = 20_000
    simulated = []
    run = engine.simulate

    def recorded(task, params, total, threads):
        simulated.append(task)
        return run(task, params, total, threads)

    monkeypatch.setattr(engine, "simulate", recorded)
    rows = size_table([100, 1001], [HC, BJ], CLOSED, [0.05, 0.1, 0.5], reps, seed, threads=1)
    assert simulated == [engine._level_task] * 2
    stats = {n: engine.null_statistics(n, reps, seed, (HC, BJ), threads=1) for n in (100, 1001)}
    for row in rows:
        cv = calibration._closed_form_cv(row.method, row.kind, row.n, row.nominal_alpha)
        assert row.realized_size.hex() == float(np.mean(stats[row.n][row.kind] > cv)).hex(), row


def test_closed_form_bj_size_below_zero_is_one(monkeypatch):
    # at alpha = 0.9 and n = 100, evi's and evii's q is below zero, and BJ >= 0
    # exceeds it on every replicate: nothing is simulated
    methods = [CalibrationMethod.EVI, CalibrationMethod.EVII]
    with monkeypatch.context() as patch:
        patch.setattr(engine, "simulate", None)
        rows = size_table([100], [BJ], methods, [0.9], 2000, 5, threads=1)
    stats = engine.null_statistics(100, 2000, 5, (BJ,), threads=1)[BJ]
    for row in rows:
        cv = calibration._closed_form_cv(row.method, BJ, 100, 0.9)
        assert cv < 0.0
        assert row.realized_size == float(np.mean(stats > cv)) == 1.0


def test_size_table_csv_golden():
    rows = [
        SizeTableRow(
            n=100,
            kind=HC,
            method=CalibrationMethod.THRESH,
            nominal_alpha=0.05,
            realized_size=0.447123,
            reps=100_000,
            master_seed=42,
        ),
        SizeTableRow(
            n=100,
            kind=BJ,
            method=EMP,
            nominal_alpha=0.1,
            realized_size=0.0999,
            reps=100_000,
            master_seed=42,
        ),
    ]
    text = size_table_csv(rows)
    assert text == (
        "n,kind,method,alpha,size,R,seed\n"
        "100,hc,thresh,0.05,0.447123,100000,42\n"
        "100,bj,empirical,0.1,0.0999,100000,42\n"
    )
    assert text.startswith(SIZE_HEADER + "\n")


# ---------------------------------------------------------------------------
# power curves

def test_power_curve_validates_grid_before_simulating(monkeypatch):
    # the bad grid never reaches the engine
    monkeypatch.setattr(engine, "simulate", None)
    with pytest.raises(DomainError):
        power_curve(100, [], [HC], 0.05, 200, 50, 0)
    with pytest.raises(DomainError):
        power_curve(100, [0.6, 0.4], [HC], 0.05, 200, 50, 0)


def test_power_curve_points_and_determinism():
    pts = power_curve(200, [0.6, 0.8], [HC, BJ], 0.05, 400, 100, 13, threads=1)
    assert [(p.beta, p.kind) for p in pts] == [
        (0.6, HC),
        (0.6, BJ),
        (0.8, HC),
        (0.8, BJ),
    ]
    again = power_curve(200, [0.6, 0.8], [HC, BJ], 0.05, 400, 100, 13, threads=1)
    assert pts == again
    for p in pts:
        assert 0.0 <= p.power <= 1.0
        assert p.reps_cal == 400 and p.reps_pow == 100 and p.master_seed == 13
    # one cv per kind, shared across the grid
    assert pts[0].cv_used == pts[2].cv_used
    assert pts[1].cv_used == pts[3].cv_used


@pytest.mark.parametrize("grid", [[0.6], [0.55, 0.8, 1.0], beta_grid_default()])
def test_power_curve_maps_the_null_and_the_whole_grid_once(monkeypatch, grid):
    calls = []
    run_tasks = engine.map_tasks

    def counted(fn, tasks, threads):
        calls.append(len(tasks))
        return run_tasks(fn, tasks, threads)

    monkeypatch.setattr(engine, "map_tasks", counted)
    power_curve(40, grid, [HC, BJ], 0.05, 400, 30, 17, threads=1)
    assert len(calls) == 2  # the null, then every grid point in one queue


def test_power_curve_grid_is_thread_invariant_and_keeps_sub_ranges():
    grid = [0.55, 0.7, 0.9]
    pts = power_curve(40, grid, [HC, BJ, ALR], 0.05, 400, 30, 19, threads=1)
    assert power_curve(40, grid, [HC, BJ, ALR], 0.05, 400, 30, 19, threads=2) == pts
    # 5 workers: 5 tasks a point, more than the cores
    assert power_curve(40, grid, [HC, BJ, ALR], 0.05, 400, 30, 19, threads=5) == pts
    # grid point k draws from stream sub-range k, as a call of its own would
    for k, beta in enumerate(grid):
        alt = engine.alternative_statistics(mixture_from(40, beta), 30, 19, sub=k, threads=1)
        for p in pts[3 * k : 3 * k + 3]:
            assert p.power == float(np.mean(alt[p.kind] > p.cv_used))


def test_power_curve_null_signal_recovers_alpha():
    # mu = 0 alternatives are null draws: power should sit at the level
    # (reps_cal is large so the cv's own noise is a small fraction of the band)
    n, reps_cal, reps_pow, alpha = 100, 100_000, 10_000, 0.05
    null_stats = engine.null_statistics(n, reps_cal, 3, (HC,), threads=1)
    cv = empirical_cv(null_stats[HC], alpha)
    alt = engine.alternative_statistics(
        MixtureSpec(n=n, eps=0.0, mu=0.0), reps_pow, 3, sub=0, kinds=(HC,), threads=1
    )
    realized = float((alt[HC] > cv).mean())
    assert abs(realized - alpha) <= 3.0 * math.sqrt(alpha * (1 - alpha) / reps_pow)


def test_power_rises_with_signal_strength():
    # r above the default grid value vs r at half strength: ~uniform win
    n, reps_cal, reps_pow, seed = 1000, 20_000, 10_000, 2718
    betas = beta_grid_default()
    se = math.sqrt(0.25 / reps_pow)
    null_stats = engine.null_statistics(n, reps_cal, seed, (BJ,), threads=1)
    cv = empirical_cv(null_stats[BJ], 0.05)
    wins = 0
    from sparsemix import r_of_beta

    for i, beta in enumerate(betas):
        hi = engine.alternative_statistics(
            mixture_from(n, beta), reps_pow, seed, sub=i, kinds=(BJ,), threads=1
        )
        lo = engine.alternative_statistics(
            mixture_from(n, beta, r=0.5 * r_of_beta(beta)),
            reps_pow,
            seed,
            sub=100 + i,
            kinds=(BJ,),
            threads=1,
        )
        p_hi = float((hi[BJ] > cv).mean())
        p_lo = float((lo[BJ] > cv).mean())
        if p_hi - p_lo > 3.0 * se:
            wins += 1
    assert wins >= 8


def test_power_curve_csv_golden():
    pts = [
        PowerCurvePoint(
            beta=0.55,
            kind=ALR,
            power=0.83125,
            n=10_000,
            reps_cal=100_000,
            reps_pow=10_000,
            cv_used=1.80061,
            master_seed=7,
        )
    ]
    text = power_curve_csv(pts)
    assert text == (
        "beta,kind,power,n,R_cal,R_pow,cv,seed\n"
        "0.55,alr,0.83125,10000,100000,10000,1.80061,7\n"
    )
    assert text.startswith(POWER_HEADER + "\n")


def test_csv_six_significant_digits():
    pts = [
        PowerCurvePoint(
            beta=2.0 / 3.0,
            kind=HC,
            power=1.0 / 3.0,
            n=100,
            reps_cal=1000,
            reps_pow=100,
            cv_used=math.pi,
            master_seed=0,
        )
    ]
    line = power_curve_csv(pts).splitlines()[1]
    assert line == "0.666667,hc,0.333333,100,1000,100,3.14159,0"
