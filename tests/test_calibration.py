"""Critical values: quantile rule, asymptotic formulas, ALR limit law."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy import special, stats

from sparsemix import (
    AlphaOutOfRange,
    CalibrationMethod,
    ConfigError,
    CriticalValueTable,
    DomainError,
    IncompatibleMethod,
    InsufficientReplicates,
    NegativeQ,
    NonFinite,
    NullSample,
    OutOfRange,
    StatisticKind,
    UnsupportedStatistic,
    alr_limit_cv,
    empirical_cv,
    evi_cv,
    evii_cv,
    quantile_index,
    simulate_null_distribution,
    stream_id_for,
    thresh_cv,
)
from sparsemix import calibration, engine
from sparsemix.calibration import (
    _bridge_coeffs,
    _cal1_rows,
    _cal1_task,
    _cal2_task,
    _limit_draws,
    _limit_entry,
    _ln_rows,
)
from sparsemix.rng import DOMAIN_CAL1, DOMAIN_CAL2, GROUP_ROWS, U_FLOOR
from table_json import table_cv, table_from_json

REL = 1e-12


def _cal2_generator(seed, idx):
    """numpy's own Generator(PCG64(SeedSequence((seed, id)))) of cal2 stream
    idx, which holds cal2 rows idx * GROUP_ROWS onward."""
    seq = np.random.SeedSequence((seed, stream_id_for(DOMAIN_CAL2, 0, idx)))
    return np.random.Generator(np.random.PCG64(seq))


def _cal2_uniforms(seed, idx, shape):
    """Uniforms from cal2 stream idx, as one block of the given shape."""
    return _cal2_generator(seed, idx).random(shape)


def _normals(u):
    """Standard normals by inverting uniforms, as the bridge once drew them."""
    return special.ndtri(np.fmax(u, U_FLOOR))


def _bridge_rows(n, grid_size, u):
    """Oracle: Brownian bridge values on the grid for each uniform row, by the
    sampler cal2 used before it drew ziggurat normals.

    Writing Y_j = B(t_j) / (1 - t_j), the exact conditional transitions
    collapse to Y_j = Y_{j-1} + c_j Z_j, so each path is one cumulative sum.
    """
    t, c, _, _ = _bridge_coeffs(n, grid_size)
    return np.cumsum(_normals(u) * c, axis=1) * (1.0 - t)


@pytest.fixture(autouse=True)
def _clean_caches():
    _limit_entry.cache_clear()
    yield
    _limit_entry.cache_clear()


# ---------------------------------------------------------------------------
# quantile rule

def test_quantile_index_known_cases():
    assert quantile_index(19, 0.05) == 19
    assert quantile_index(99, 0.05) == 95
    assert quantile_index(100_000, 0.05) == 95_001
    assert quantile_index(19, 0.95) == 1
    assert quantile_index(10, 0.001) == 10  # capped at R


def test_quantile_index_decimal_alpha_is_exact():
    # float arithmetic puts ceil((1 - 0.95) * 20) at 2; the rule says 1
    assert math.ceil((1 - 0.95) * 20) == 2
    assert quantile_index(19, 0.95) == 1


def test_quantile_index_validation():
    with pytest.raises(AlphaOutOfRange):
        quantile_index(100, 0.0)
    with pytest.raises(AlphaOutOfRange):
        quantile_index(100, 1.0)
    with pytest.raises(InsufficientReplicates):
        quantile_index(0, 0.05)


# ---------------------------------------------------------------------------
# empirical calibration

def _null_sample(values, kind=StatisticKind.HC, n=100, seed=0):
    return NullSample(
        kind=kind, n=n, replicates=np.asarray(values, dtype=float), master_seed=seed
    )


def test_empirical_cv_picks_exact_order_statistic():
    sample = _null_sample(np.arange(1.0, 201.0))
    assert empirical_cv(sample, 0.05) == 191.0
    assert empirical_cv(sample, 0.10) == 181.0
    assert empirical_cv(sample, 0.5) == 101.0


def test_empirical_cv_non_increasing_in_alpha():
    sample = _null_sample(np.sort(np.random.default_rng(3).normal(size=500)))
    cvs = [empirical_cv(sample, a) for a in (0.05, 0.1, 0.25, 0.5)]
    assert all(b <= a for a, b in zip(cvs, cvs[1:]))


def test_empirical_cv_sparse_tail_gate():
    sample = _null_sample(np.arange(19.0))  # small samples are representable
    assert sample.reps == 19
    with pytest.raises(InsufficientReplicates):
        empirical_cv(sample, 0.05)


def test_null_sample_validation():
    with pytest.raises(OutOfRange):
        _null_sample(np.array([]))
    with pytest.raises(OutOfRange):
        _null_sample(np.array([2.0, 1.0]))
    with pytest.raises(NonFinite):
        _null_sample(np.array([0.0, float("nan")]))
    with pytest.raises(OutOfRange):
        _null_sample(np.zeros((2, 2)))


def test_simulate_null_distribution():
    with pytest.raises(InsufficientReplicates):
        simulate_null_distribution(StatisticKind.HC, 50, 99, 0)
    s = simulate_null_distribution(StatisticKind.HC, 50, 200, 7, threads=1)
    assert s.kind is StatisticKind.HC and s.n == 50 and s.master_seed == 7
    assert s.reps == 200
    assert np.all(np.diff(s.replicates) >= 0.0)
    again = simulate_null_distribution(StatisticKind.HC, 50, 200, 7, threads=1)
    assert np.array_equal(s.replicates, again.replicates)


def test_self_consistency_on_same_sample_is_exact():
    # without ties, the realized exceedance rate of the fitted cv is (R - k)/R
    s = simulate_null_distribution(StatisticKind.BJ, 40, 2000, 11, threads=1)
    cv = empirical_cv(s, 0.05)
    realized = float((s.replicates > cv).mean())
    k = quantile_index(2000, 0.05)
    assert realized == (2000 - k) / 2000


def test_fresh_sample_size_recovery():
    # calibrate on one seed, evaluate on another: realized size within 0.25pp
    n, reps = 100, 100_000
    fit = simulate_null_distribution(StatisticKind.HC, n, reps, 2024, threads=1)
    cv = empirical_cv(fit, 0.05)
    from sparsemix import null_statistics

    fresh = null_statistics(n, reps, 2025, (StatisticKind.HC,), threads=1)
    realized = float((fresh[StatisticKind.HC] > cv).mean())
    assert abs(realized - 0.05) < 0.0025


# ---------------------------------------------------------------------------
# asymptotic critical values

def test_thresh_cv_frozen_values():
    assert thresh_cv(StatisticKind.BJ, 100) == pytest.approx(1.5271796258079011, rel=REL)
    assert thresh_cv(StatisticKind.HC, 100) == pytest.approx(1.7476725241348284, rel=REL)
    assert thresh_cv(StatisticKind.BJ, 10_000) == pytest.approx(2.2203268063678464, rel=REL)
    assert thresh_cv(StatisticKind.HC, 10_000) == pytest.approx(2.1072858403016172, rel=REL)
    assert thresh_cv(StatisticKind.BJ, 10**6) == pytest.approx(2.6257919144760108, rel=REL)
    assert thresh_cv(StatisticKind.HC, 10**6) == pytest.approx(2.2916334412274625, rel=REL)


def test_evi_cv_frozen_values():
    assert evi_cv(StatisticKind.BJ, 10**6, 0.05) == pytest.approx(
        4.813166306159509, rel=REL
    )
    assert evi_cv(StatisticKind.HC, 10**6, 0.05) == pytest.approx(
        3.102633173986093, rel=REL
    )


def test_evii_cv_frozen_values():
    assert evii_cv(StatisticKind.BJ, 10**6, 0.05) == pytest.approx(
        4.871511418289048, rel=REL
    )
    assert evii_cv(StatisticKind.HC, 10**6, 0.05) == pytest.approx(
        3.121381558953999, rel=REL
    )


def test_asymptotic_validation():
    with pytest.raises(UnsupportedStatistic):
        thresh_cv(StatisticKind.ALR, 1000)
    with pytest.raises(UnsupportedStatistic):
        evi_cv(StatisticKind.ALR, 1000, 0.05)
    with pytest.raises(DomainError):
        thresh_cv(StatisticKind.HC, 15)
    with pytest.raises(AlphaOutOfRange):
        evi_cv(StatisticKind.HC, 1000, 0.0)


def test_evi_hc_guards_negative_quantile():
    with pytest.raises(NegativeQ):
        evi_cv(StatisticKind.HC, 16, 0.9)
    # the BJ variant is the quantile itself; a negative value is meaningful
    assert evi_cv(StatisticKind.BJ, 16, 0.9) < 0.0


def test_evii_dominates_evi_for_bj():
    for n in (16, 100, 10_000, 10**6):
        for alpha in (0.01, 0.05, 0.1, 0.5):
            assert evii_cv(StatisticKind.BJ, n, alpha) > evi_cv(
                StatisticKind.BJ, n, alpha
            )


def test_asymptotic_cvs_decrease_in_alpha():
    for fn in (evi_cv, evii_cv):
        vals = [fn(StatisticKind.BJ, 10_000, a) for a in (0.01, 0.05, 0.1, 0.2)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_calibration_method_parse():
    assert CalibrationMethod.parse(" EVI ") is CalibrationMethod.EVI
    assert CalibrationMethod.parse("cal2") is CalibrationMethod.CAL2
    with pytest.raises(ConfigError):
        CalibrationMethod.parse("bootstrap")


# ---------------------------------------------------------------------------
# critical value tables

def _table(entries, method=CalibrationMethod.EMPIRICAL, **kw):
    return CriticalValueTable(
        kind=StatisticKind.HC,
        n=100,
        method=method,
        entries=tuple(entries),
        **kw,
    )


def test_table_lookup_and_json_round_trip():
    t = _table([(0.05, 3.1), (0.1, 2.8)], reps=1000, master_seed=4)
    assert table_cv(t, 0.05) == 3.1
    assert table_cv(t, 0.1) == 2.8
    with pytest.raises(DomainError):
        table_cv(t, 0.2)
    payload = json.loads(t.to_json())
    assert payload["kind"] == "hc" and payload["R"] == 1000
    assert table_from_json(t.to_json()) == t


def test_table_validation():
    with pytest.raises(OutOfRange):
        _table([])
    with pytest.raises(OutOfRange):
        _table([(0.1, 3.0), (0.05, 3.5)])  # alphas must increase
    with pytest.raises(OutOfRange):
        _table([(0.05, 3.0), (0.1, 3.5)])  # cvs must not increase
    with pytest.raises(NonFinite):
        _table([(0.05, float("nan"))])
    _table([(0.05, 3.0), (0.1, 3.0)])  # ties are fine
    with pytest.raises(OutOfRange):
        _table([(0.05, 2.0), (0.1, 1.9)], method=CalibrationMethod.THRESH)
    _table([(0.05, 2.0), (0.1, 2.0)], method=CalibrationMethod.THRESH)


def test_table_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        table_from_json("not json")
    with pytest.raises(ConfigError):
        table_from_json("{}")
    with pytest.raises(ConfigError):
        table_from_json('{"kind": "hc", "n": "x"}')


# ---------------------------------------------------------------------------
# cal1 limit draws

def test_cal1_crafted_uniforms():
    # E = 0.5, Z = 1: 0.5 * e^{-0.5}/0.5 + 0.5 * e^{0.5}
    u = np.array([[-math.expm1(-0.5), float(special.ndtr(1.0))]])
    assert _cal1_rows(u)[0] == pytest.approx(1.4308912950626975, rel=REL)
    # E = 2 >= 1 kills the first factor; Z < 0 truncates to zero
    u = np.array([[-math.expm1(-2.0), float(special.ndtr(-1.0))]])
    assert _cal1_rows(u)[0] == pytest.approx(1.0, rel=REL)


def test_cal1_draws_at_least_one():
    vals = _cal1_task((5, 0, 500))
    assert vals.min() >= 1.0
    assert _cal1_task((5, 3, 1))[0] == vals[3]


# ---------------------------------------------------------------------------
# bridge functional

def test_bridge_grid_endpoints_exact():
    t, c, w, k = _bridge_coeffs(1000, 512)
    assert t[0] == 1e-3 and t[-1] == 0.5
    assert t.size == 513 and np.all(np.diff(t) > 0.0)
    assert np.all(c > 0.0) and np.all(k > 0.0)
    assert w.sum() == pytest.approx(math.log(500.0), rel=REL)


def test_zero_bridge_value_is_log_ratio():
    # zero normals: every bridge increment vanishes
    n, m = 10_000, 512
    ln = _ln_rows(n, m, np.zeros((1, m + 1)))[0]
    assert ln == pytest.approx(0.9247425010840047, rel=REL)
    assert ln == pytest.approx(math.log(n / 2.0) / math.log(n), rel=REL)


def _trapezoid_ln(n, m, b):
    """Oracle: L_n of bridge rows b by numpy's trapezoid rule in u = log t."""
    t, _, _, _ = _bridge_coeffs(n, m)
    bp = np.fmax(b, 0.0)
    integrand = np.exp(bp * bp / (2.0 * t * (1.0 - t)))
    return np.trapezoid(integrand, np.log(t), axis=1) / math.log(n)


def test_ln_functional_matches_sample_ln():
    n, m = 4096, 512
    u = _cal2_uniforms(21, 9, (8, m + 1))
    oracle = _trapezoid_ln(n, m, _bridge_rows(n, m, u))
    np.testing.assert_allclose(_ln_rows(n, m, _normals(u)), oracle, rtol=1e-9)


def test_sample_ln_lower_bound_and_determinism():
    n, m = 1024, 256
    z = _normals(_cal2_uniforms(2, 0, (200, m + 1)))
    vals = _ln_rows(n, m, z)
    assert vals.min() >= math.log(n / 2.0) / math.log(n)
    assert _ln_rows(n, m, z[7:8])[0] == vals[7]


def test_bridge_args_validation():
    def cal2(n_for_l, grid_size):
        return alr_limit_cv(
            CalibrationMethod.CAL2, 0.1, 10_000, 0,
            n_for_l=n_for_l, grid_size=grid_size, threads=1,
        )

    with pytest.raises(DomainError):
        cal2(15, 512)
    with pytest.raises(DomainError):
        cal2(100, 255)
    assert _limit_entry.cache_info().currsize == 0  # refused before any draw


def test_bridge_marginal_variance():
    # B(t) ~ N(0, t(1-t)): check the sampled variance on a coarse grid
    n, m, draws = 256, 256, 4000
    u = _cal2_uniforms(31, 0, (draws, m + 1))
    b = _bridge_rows(n, m, u)
    t, _, _, _ = _bridge_coeffs(n, m)
    for idx in (0, m // 2, m):
        sd = math.sqrt(t[idx] * (1.0 - t[idx]))
        sample_sd = float(b[:, idx].std())
        assert abs(sample_sd - sd) < 6.0 * sd / math.sqrt(draws)


def test_ln_median_drifts_slowly_across_decades():
    # the law of L_n stabilizes: medians move < 30% per decade of n
    meds = []
    for n in (100, 1000, 10_000, 100_000, 1_000_000):
        z = _normals(_cal2_uniforms(17, 0, (400, 513)))
        meds.append(float(np.median(_ln_rows(n, 512, z))))
    for a, b in zip(meds, meds[1:]):
        assert abs(b - a) / a < 0.30


def test_grid_doubling_shifts_mean_under_two_percent():
    # common random numbers: the coarse path is the fine path at even indexes
    n, m, draws = 10_000, 2048, 3000
    u = _cal2_uniforms(23, 0, (draws, 2 * m + 1))
    fine = _ln_rows(n, 2 * m, _normals(u))
    b = _bridge_rows(n, 2 * m, u)
    t, _, _, _ = _bridge_coeffs(n, 2 * m)
    bc = np.fmax(b[:, ::2], 0.0)
    tc = t[::2]
    integrand = np.exp(bc * bc / (2.0 * tc * (1.0 - tc)))
    coarse = np.trapezoid(integrand, np.log(tc), axis=1) / math.log(n)
    change = abs(fine.mean() - coarse.mean()) / coarse.mean()
    assert change < 0.02


# ---------------------------------------------------------------------------
# limit-law critical values

def test_alr_limit_cv_deterministic_and_log_domain():
    v = alr_limit_cv(CalibrationMethod.CAL1, 0.1, 10_000, 42, threads=1)
    assert v == alr_limit_cv(CalibrationMethod.CAL1, 0.1, 10_000, 42, threads=1)
    assert v > 0.0  # raw draws are >= 1, so the log cv is nonnegative
    draws = _limit_draws(CalibrationMethod.CAL1, 10_000, 0, 0, 42, 1)
    assert v == math.log(draws[quantile_index(10_000, 0.1) - 1])


def test_alr_limit_cv_shares_draws_across_alphas():
    alr_limit_cv(CalibrationMethod.CAL1, 0.05, 10_000, 9, threads=1)
    assert _limit_entry.cache_info().currsize == 1
    alr_limit_cv(CalibrationMethod.CAL1, 0.1, 10_000, 9, threads=1)
    info = _limit_entry.cache_info()
    assert (info.currsize, info.hits) == (1, 1)  # second alpha reused the draws


def test_limit_draws_are_cached_across_thread_counts(monkeypatch):
    maps = []
    run_tasks = engine.map_tasks

    def counted(fn, tasks, threads):
        maps.append(threads)
        return run_tasks(fn, tasks, threads)

    monkeypatch.setattr(engine, "map_tasks", counted)
    v = alr_limit_cv(CalibrationMethod.CAL1, 0.05, 20_000, 7, threads=1)
    assert maps == [1]
    assert alr_limit_cv(CalibrationMethod.CAL1, 0.05, 20_000, 7, threads=2) == v
    assert maps == [1]  # the second call made no map
    info = _limit_entry.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_alr_limit_cv_cal2_runs_small():
    v = alr_limit_cv(
        CalibrationMethod.CAL2, 0.1, 10_000, 3, n_for_l=1000, grid_size=256, threads=1
    )
    assert math.isfinite(v) and v > 0.0


def test_cal2_draw_composition():
    # one draw = exponential factor plus half the bridge functional, from
    # numpy alone: row j is read from stream j // GROUP_ROWS after the
    # group's earlier rows, each a uniform and then m + 1 normals
    n, m, seed = 1024, 256, 13
    for j in (0, 4, GROUP_ROWS + 4):
        direct = _cal2_task((seed, n, m, j, 1))[0]
        group, k = divmod(j, GROUP_ROWS)
        g = _cal2_generator(seed, group)
        for _ in range(k):
            g.random(), g.standard_normal(m + 1)
        u0, z = g.random(), g.standard_normal(m + 1)
        e = -math.log1p(-max(u0, U_FLOOR))
        factor = math.exp(e - 1.0) / e if e < 1.0 else 1.0
        ln = _ln_rows(n, m, z[None, :])[0]
        assert direct == pytest.approx(0.5 * factor + 0.5 * ln, rel=1e-12), j


def test_cal2_tasks_started_mid_group_equal_the_rows_from_its_start():
    # a task that starts mid-group draws the group's earlier rows and
    # discards them: its rows equal those of a task from row 0, bitwise
    whole = _cal2_task((7, 1000, 256, 0, 2 * GROUP_ROWS + 10))
    for start, count in ((3, 5), (GROUP_ROWS - 6, 12), (GROUP_ROWS, 1),
                         (GROUP_ROWS + 1, GROUP_ROWS + 9), (2 * GROUP_ROWS - 1, 1)):
        part = _cal2_task((7, 1000, 256, start, count))
        assert np.array_equal(part, whole[start : start + count]), (start, count)


def _task_bridges(monkeypatch, args):
    """The normals that _cal2_task(args) feeds _ln_rows, and its L_n draws."""
    normals, lns = [], []
    ln_rows = calibration._ln_rows

    def recorded(n, grid_size, z, out=None):
        normals.append(z.copy())
        lns.append(ln_rows(n, grid_size, z, out=out))
        return lns[-1]

    monkeypatch.setattr(calibration, "_ln_rows", recorded)
    _cal2_task(args)
    return np.vstack(normals), np.concatenate(lns)


def test_ln_law_matches_the_inversion_sampler(monkeypatch):
    # two independent samples: the task's ziggurat normals, and the inverted
    # uniforms of a stream of another seed
    n, m, draws = 1000, 256, 4000
    _, new = _task_bridges(monkeypatch, (42, n, m, 0, draws))
    old = _trapezoid_ln(n, m, _bridge_rows(n, m, _cal2_uniforms(41, 0, (draws, m + 1))))
    assert new.shape == old.shape == (draws,)
    assert stats.ks_2samp(old, new).pvalue > 1e-3


def test_bridge_increments_are_standard_normal(monkeypatch):
    # undo the cumulative sum of a task's bridges: the increments are N(0, 1)
    n, m = 1000, 256
    z, _ = _task_bridges(monkeypatch, (43, n, m, 0, 4000))
    _, c, _, _ = _bridge_coeffs(n, m)
    y = np.cumsum(z * c, axis=1)
    increments = np.diff(y, axis=1, prepend=0.0) / c
    assert increments.shape == (4000, m + 1)
    assert stats.kstest(increments.ravel(), "norm").pvalue > 1e-3


def test_cal2_draws_do_not_depend_on_the_thread_count():
    runs = []
    for threads in (1, 2, 0):
        _limit_entry.cache_clear()
        cv = alr_limit_cv(
            CalibrationMethod.CAL2, 0.1, 10_000, 19,
            n_for_l=1000, grid_size=256, threads=threads,
        )
        runs.append((cv, _limit_draws(CalibrationMethod.CAL2, 10_000, 1000, 256, 19, threads)))
    for cv, draws in runs[1:]:
        assert cv == runs[0][0]
        assert np.array_equal(draws, runs[0][1])


def test_cal1_task_reads_its_rows_from_the_group_streams(monkeypatch):
    # rows 0..999 are the first 2 * 256 draws of each of cal1 streams 0..3,
    # two a row, in blocks of 4096 rows or of 7
    u = np.vstack([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            (1729, stream_id_for(DOMAIN_CAL1, 0, g))))).random((GROUP_ROWS, 2))
        for g in range(4)
    ])[:1000]
    for _ in range(2):
        assert np.array_equal(_cal1_task((1729, 0, 1000)), _cal1_rows(u))
        assert np.array_equal(_cal1_task((1729, 300, 700)), _cal1_rows(u[300:]))
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * calibration._CAL1_ROW_ELEMENTS)


def test_limit_task_draws_are_pinned():
    # SHA-256 of the task outputs in the layout of 256-row stream groups
    # (numpy 2.4.6): a change to the stream layout, the draws or the
    # limit-law arithmetic shows here.
    cal1 = calibration._cal1_task((1729, 0, 5000))
    cal2 = _cal2_task((1729, 1000, 256, 0, 64))
    assert (cal1.shape, cal2.shape) == ((5000,), (64,))
    assert hashlib.sha256(cal1.tobytes()).hexdigest() == (
        "f907441305b9d56118a2cd9c6ccc99d510ca8d21f75657faaab5f2c076b86dee"
    )
    assert hashlib.sha256(cal2.tobytes()).hexdigest() == (
        "6fe2315845b53fb94cb1dad164bb9dcc06c9475a1fc289f40d68a384b3b08c30"
    )


def test_alr_limit_cv_validation():
    with pytest.raises(IncompatibleMethod):
        alr_limit_cv(CalibrationMethod.THRESH, 0.05, 10_000, 0)
    with pytest.raises(InsufficientReplicates):
        alr_limit_cv(CalibrationMethod.CAL1, 0.05, 5000, 0)
    with pytest.raises(InsufficientReplicates):
        alr_limit_cv(CalibrationMethod.CAL1, 0.0001, 10_000, 0)
    with pytest.raises(DomainError):
        alr_limit_cv(CalibrationMethod.CAL2, 0.05, 10_000, 0, n_for_l=8)
    with pytest.raises(DomainError):
        alr_limit_cv(CalibrationMethod.CAL2, 0.05, 10_000, 0, grid_size=64)
    with pytest.raises(AlphaOutOfRange):
        alr_limit_cv(CalibrationMethod.CAL1, 1.5, 10_000, 0)


def test_cached_limit_draws_are_read_only():
    draws = _limit_draws(CalibrationMethod.CAL1, 10_000, 0, 0, 3, 1)
    with pytest.raises(ValueError):
        draws[0] = 0.0
    assert _limit_draws(CalibrationMethod.CAL1, 10_000, 0, 0, 3, 1) is draws


@pytest.mark.parametrize(
    "variant,reps,n_for_l,grid_size",
    [
        (CalibrationMethod.CAL1, 20_000, 0, 0),
        (CalibrationMethod.CAL2, 10_000, 1000, 256),
    ],
)
def test_limit_draws_do_not_depend_on_the_task_split(variant, reps, n_for_l, grid_size):
    args = (variant, reps, n_for_l, grid_size, 11)
    runs = []
    for threads in (1, 2, 5):  # 5 workers: 5 tasks, more than the cores
        _limit_entry.cache_clear()
        runs.append(_limit_draws(*args, threads))
    if variant is CalibrationMethod.CAL1:
        task, params = calibration._cal1_task, (11,)
    else:
        task, params = calibration._cal2_task, (11, n_for_l, grid_size)
    # 7 rows a task, joined in this process
    tasks = [task((*params, s, min(7, reps - s))) for s in range(0, reps, 7)]
    runs.append(np.sort(np.concatenate(tasks)))
    assert runs[0].shape == (reps,)
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)
