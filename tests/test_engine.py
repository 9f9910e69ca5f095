"""Batched Monte Carlo engine: scalar agreement, batching, blocks, requests."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from sparsemix import (
    ConfigError,
    InsufficientReplicates,
    MixtureSpec,
    SampleTooSmall,
    StatisticKind,
    alternative_statistics,
    bj_plus,
    hc_star,
    log_alr,
    null_statistics,
    prepare,
    stream_id_for,
)
import sparsemix
from sparsemix import calibration, engine, rng
from sparsemix.mixture import mixture_from
from sparsemix.rng import (
    DOMAIN_CAL1,
    DOMAIN_CAL2,
    DOMAIN_NULL,
    DOMAIN_POWER,
    DOMAIN_SHIFT,
)
from sparsemix.stats import P_MAX, P_MIN, _log1m_boundaries, _row_stats, supported_kinds


HC, BJ, ALR = StatisticKind.HC, StatisticKind.BJ, StatisticKind.ALR
_ALL = (HC, BJ, ALR)


def _numpy_row(seed, domain, sub, j, width, normal=False):
    """The oracle: row j of (domain, sub), `width` wide, which is uniforms (or
    standard normals) [k * width, (k + 1) * width), k = j % GROUP_ROWS, of
    numpy's own Generator(PCG64(SeedSequence((seed, stream_id_for(domain,
    sub, j // GROUP_ROWS)))))."""
    group, k = divmod(j, rng.GROUP_ROWS)
    seq = np.random.SeedSequence((seed, stream_id_for(domain, sub, group)))
    generator = np.random.Generator(np.random.PCG64(seq))
    draw = generator.standard_normal if normal else generator.random
    return draw((k + 1) * width)[k * width :]


def _renyi_log1m(u, unshifted, m):
    """The oracle for the unshifted part of a row: log(1 - p) of the
    min(m, N) smallest of N = `unshifted` uniforms, the cumsum of the Renyi
    spacings of the uniforms u."""
    k = np.arange(1, min(m, unshifted) + 1)
    return np.cumsum(np.log(1.0 - u[: k.size]) / (unshifted + 1 - k))


def _scored(low, n):
    """The sample that hc_star and friends score: the lower half, padded
    with ones that they never read."""
    return prepare(np.concatenate([low, np.ones(n - low.size)]))


def _check_row(got, low, log1m, n):
    """Statistics (hc, bj, alr) of one engine row against the oracle row: p
    = `low`, sampled as log(1 - p) = `log1m`.  HC equals hc_star bitwise; BJ
    and ALR equal the kernels given that log(1 - p) bitwise, and bj_plus and
    log_alr, which form log1p(-p) themselves, to within n 2^-52 max(1, |v|):
    the two differ by the rounding of one log(1 - p) a term, times n - i.
    Measured over 2000 null and alternative rows at n = 30..1e4 (300 at
    1e4): at most 0.2 of that bound for BJ, 0.085 for ALR."""
    s = _scored(low, n)
    want = _row_stats(s.values[None, : n // 2], n, (BJ, ALR), log1m=log1m[None].copy())
    assert got[0] == hc_star(s)
    assert (got[1], got[2]) == (want[BJ][0], want[ALR][0])
    for value, scalar in ((got[1], bj_plus(s)), (got[2], log_alr(s))):
        assert abs(value - scalar) <= n * 2.0**-52 * max(1.0, abs(scalar))


def test_null_batch_matches_scalar_path_bitwise():
    # more rows than a group: rows 256.. come from the second group's stream
    n, reps, seed = 40, rng.GROUP_ROWS + 9, 314
    got = null_statistics(n, reps, seed, threads=1)
    for j in range(reps):
        log1m = _renyi_log1m(_numpy_row(seed, DOMAIN_NULL, 0, j, n // 2), n, n // 2)
        _check_row([got[k][j] for k in _ALL], -np.expm1(log1m), log1m, n)


def test_alternative_batch_matches_scalar_path_bitwise():
    # row j from numpy alone: K by the Bin(n, eps) CDF of its first uniform,
    # m spacings, and the first K of its normals, a row as many as the most
    # shifts a row can have, shifted by mu and through the C library's erfc
    # one at a time; both merged as S = -log(1 - p), which sorts as p does.
    # At eps = 0.6 most rows shift more than n - m coordinates, so fewer than
    # m unshifted p-values exist.  Rows 250..265 cross from the first group
    # into the second.  At n = 100 some rows' BJ or ALR differ in their last
    # bits between the sampler's L and log1p(-p), so a task that dropped L
    # fails here (at n = 30 none of these rows did).
    seed, sub, start, count = 99, 3, 250, 16
    for eps in (0.1, 0.6):
        spec = MixtureSpec(n=100, eps=eps, mu=2.0)
        n, m = spec.n, spec.n // 2
        got = engine._alt_task((n, eps, spec.mu, seed, sub, _ALL, start, count))
        cdf = sps.binom.cdf(np.arange(n + 1), n, spec.eps)
        width = engine._shift_cdf(n, eps).size - 1
        for i in range(count):
            u = _numpy_row(seed, DOMAIN_POWER, sub, start + i, 1 + m)
            z = _numpy_row(seed, DOMAIN_SHIFT, sub, start + i, width, normal=True)
            shifts = int(np.searchsorted(cdf, u[0], side="right"))
            unshifted = -_renyi_log1m(u[1:], n - shifts, m)
            shifted = np.array([0.5 * math.erfc(v / math.sqrt(2.0))
                                for v in z[:shifts] + spec.mu])
            log1m = -np.sort(np.concatenate([unshifted, -np.log1p(-shifted)]))[:m]
            _check_row(got[:, i], -np.expm1(log1m), log1m, n)


# Rows 0..599 split into ragged tasks, two of them a single row: tasks that
# end at a group edge (row 255), start at one (256), start mid-group and
# cross one (257..556 and 512).
_SPLIT = [(0, 5), (5, 1), (6, 250), (256, 1), (257, 300), (557, 43)]
_SPLIT_ROWS = 600


def test_batch_size_does_not_change_results():
    n, reps, seed = 24, _SPLIT_ROWS, 7
    whole = null_statistics(n, reps, seed, threads=1)
    kinds = tuple(whole)
    split = np.concatenate(
        [engine._null_task((n, seed, kinds, s, c)) for s, c in _SPLIT], axis=-1
    )
    for i, k in enumerate(kinds):
        assert np.array_equal(whole[k], split[i])


def test_thread_count_does_not_change_results():
    n, reps, seed = 24, _SPLIT_ROWS, 8
    runs = []
    for threads in (1, 2, 5, 0):  # 5 workers: 5 tasks, more than the cores
        runs.append(null_statistics(n, reps, seed, threads=threads))
    for k in runs[0]:
        for other in runs[1:]:
            assert np.array_equal(runs[0][k], other[k])


def test_levels_do_not_depend_on_the_task_split_or_thread_count():
    n, reps, seed = 24, _SPLIT_ROWS, 8
    plans = _plans(n)
    cvs = {kind: c for kind, c, _, _ in plans}
    runs = [engine.null_levels(n, reps, seed, cvs, threads=t) for t in (1, 2, 5, 0)]
    split = np.concatenate(
        [engine._level_task((n, seed, plans, s, c)) for s, c in _SPLIT], axis=-1
    )
    stats = null_statistics(n, reps, seed, tuple(cvs), threads=1)
    for i, (kind, c) in enumerate(cvs.items()):
        want = np.sum(stats[kind][:, None] > c, axis=1)
        assert set(want.tolist()) == set(range(c.size + 1))  # every level is taken
        assert np.array_equal(split[i], want)
        for run in runs:
            assert np.array_equal(run[kind], want)


def _closed_form_cvs(kind, n):
    """The distinct closed-form critical values of a kind at n, ascending."""
    return np.array(sorted({
        calibration._closed_form_cv(method, kind, n, alpha)
        for method in calibration._CLOSED_FORMS
        for alpha in (0.05, 0.1, 0.5)
    }))


@pytest.mark.parametrize("seed", [5, 1729])
@pytest.mark.parametrize("n", [16, 100, 1001, 10_000])
def test_levels_equal_the_statistics_path(n, seed):
    reps = 4_000_000 // n
    cvs = {kind: _closed_form_cvs(kind, n) for kind in (HC, BJ)}
    levels = engine.null_levels(n, reps, seed, cvs, threads=1)
    stats = null_statistics(n, reps, seed, (HC, BJ), threads=1)
    for kind, c in cvs.items():
        assert np.array_equal(levels[kind], np.sum(stats[kind][:, None] > c, axis=1))


def _moved(x, ulps):
    """x moved `ulps` doubles up (ulps > 0) or down."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.copysign(math.inf, ulps))
    return x


@pytest.mark.parametrize("kind", [HC, BJ])
@pytest.mark.parametrize("n", [16, 100, 1001, 10_000])
def test_levels_of_rows_planted_on_a_boundary_equal_the_kernels(monkeypatch, n, kind):
    # each row is L = log1p(-t), p = t, where every term is 0, but for one
    # L_i planted on the boundary of a critical value, or a few ulps off it:
    # the kernels decide such rows, and the levels and sizes are theirs
    cvs = _closed_form_cvs(kind, n)
    m = n // 2
    boundary = _log1m_boundaries(kind, cvs, n)
    base = np.log1p(-np.arange(1, m + 1) / n)
    rows = []
    for q in range(cvs.size):
        for i in (0, m // 2, m - 1):
            for ulps in range(-4, 5):
                rows.append(base.copy())
                rows[-1][i] = _moved(boundary[q, i], ulps)
    ell = np.array(rows)
    decided = []

    def counted(p, *args, **kwargs):
        decided.append(len(p))
        return _row_stats(p, *args, **kwargs)

    monkeypatch.setattr(engine, "_row_stats", counted)
    levels = engine._row_levels(ell, n, engine._level_plan(kind, cvs, n), np.empty(ell.shape),
                                np.empty(ell.shape, dtype=bool))
    p = np.clip(-np.expm1(ell), P_MIN, P_MAX)
    stat = _row_stats(p, n, (kind,), log1m=ell.copy())[kind]
    assert sum(decided) > 0
    assert np.array_equal(levels, np.sum(stat[:, None] > cvs, axis=1))
    for q, cv in enumerate(cvs):
        assert float(np.mean(levels > q)).hex() == float(np.mean(stat > cv)).hex()


def test_null_levels_validation():
    with pytest.raises(sparsemix.UnsupportedStatistic):
        engine.null_levels(100, 10, 1, {ALR: [1.0]}, threads=1)
    for bad in ([2.0, 1.0], [1.0, 1.0], [-1.0], [math.nan], [math.inf], [[1.0]]):
        with pytest.raises(ConfigError):
            engine.null_levels(100, 10, 1, {HC: bad}, threads=1)
    with pytest.raises(ConfigError):
        engine.null_levels(100, 10, 1, {}, threads=1)


def test_alternative_threads_and_batching_invariance():
    spec = MixtureSpec(n=16, eps=0.2, mu=1.5)
    base = alternative_statistics(spec, _SPLIT_ROWS, 5, sub=1, threads=1)
    redone = alternative_statistics(spec, _SPLIT_ROWS, 5, sub=1, threads=5)
    kinds = tuple(base)
    split = np.concatenate(
        [engine._alt_task((spec.n, spec.eps, spec.mu, 5, 1, kinds, s, c)) for s, c in _SPLIT],
        axis=-1,
    )
    for i, k in enumerate(kinds):
        assert np.array_equal(base[k], redone[k])
        assert np.array_equal(base[k], split[i])


def test_alternative_grid_equals_one_call_per_mixture():
    specs = [mixture_from(16, beta) for beta in (0.6, 0.9)]
    grid = engine.alternative_grid(specs, 12, 4, first_sub=3, threads=2)
    for k, spec in enumerate(specs):
        one = alternative_statistics(spec, 12, 4, sub=3 + k, threads=1)
        for kind in one:
            assert np.array_equal(grid[k][kind], one[kind])


def test_alternative_grid_refuses_empty_or_mixed_n():
    with pytest.raises(ConfigError):
        engine.alternative_grid([], 12, 4, threads=1)
    with pytest.raises(ConfigError):
        engine.alternative_grid([mixture_from(16, 0.6), mixture_from(32, 0.6)], 12, 4, threads=1)


def _subsets(kinds):
    return [c for r in range(1, len(kinds) + 1) for c in itertools.combinations(kinds, r)]


# every nonempty subset of the kinds supported at n; BJ and ALR run before HC
# and lend it their buffers, so a kind's vector must not depend on its company
_NULL_SUBSETS = [(n, kinds) for n in (2, 3, 100, 1001) for kinds in _subsets(supported_kinds(n))]


@pytest.mark.parametrize(
    "n,kinds", _NULL_SUBSETS,
    ids=[f"n{n}-{'-'.join(k.value for k in c)}" for n, c in _NULL_SUBSETS],
)
def test_a_null_kind_does_not_depend_on_the_kinds_computed_with_it(n, kinds):
    whole = null_statistics(n, 300, 9, threads=1)
    got = null_statistics(n, 300, 9, kinds, threads=1)
    assert list(got) == list(kinds)
    for k in kinds:
        assert got[k].tobytes() == whole[k].tobytes()


_ALT_SUBSETS = _subsets(_ALL)


@pytest.mark.parametrize(
    "kinds", _ALT_SUBSETS, ids=["-".join(k.value for k in c) for c in _ALT_SUBSETS]
)
def test_an_alternative_kind_does_not_depend_on_the_kinds_computed_with_it(kinds):
    spec = mixture_from(1001, 0.6)
    whole = alternative_statistics(spec, 300, 9, sub=2, threads=1)
    got = alternative_statistics(spec, 300, 9, sub=2, kinds=kinds, threads=1)
    assert list(got) == list(kinds)
    for k in kinds:
        assert got[k].tobytes() == whole[k].tobytes()


def test_small_n_skips_alr():
    got = null_statistics(3, 5, 0, threads=1)
    assert set(got) == {StatisticKind.HC, StatisticKind.BJ}


def test_request_validation():
    with pytest.raises(SampleTooSmall):
        null_statistics(1, 10, 0)
    with pytest.raises(InsufficientReplicates):
        null_statistics(10, 0, 0)
    with pytest.raises(SampleTooSmall):
        null_statistics(3, 5, 0, kinds=(StatisticKind.ALR,))
    with pytest.raises(ConfigError):
        null_statistics(10, 5, 0, threads=-1)
    with pytest.raises(InsufficientReplicates):
        alternative_statistics(MixtureSpec(n=10, eps=0.1, mu=1.0), 0, 0)


def test_empty_kinds_refused_before_any_task(monkeypatch):
    def no_tasks(fn, tasks, threads):
        raise AssertionError("a task ran")

    monkeypatch.setattr(engine, "map_tasks", no_tasks)
    with pytest.raises(ConfigError):
        null_statistics(10, 5, 0, kinds=())
    with pytest.raises(ConfigError):
        alternative_statistics(MixtureSpec(n=10, eps=0.1, mu=1.0), 5, 0, kinds=[])


def test_resolve_threads():
    assert engine.resolve_threads(3) == 3
    assert engine.resolve_threads(0) >= 1
    with pytest.raises(ConfigError):
        engine.resolve_threads(-2)


@pytest.mark.parametrize(
    "total,threads,counts",
    [
        (200_000, 2, [100_000, 100_000]),
        (200_000, 1, [200_000]),
        (100_000, 2, [50_000, 50_000]),  # the null at n = 100: one task per worker
        (5, 3, [1, 2, 2]),
        (1, 2, [1]),  # fewer rows than workers: one row per task
        (0, 2, []),
        (7, 5, [1, 1, 2, 1, 2]),  # near-equal, one task per worker
    ],
)
def test_ranges_split_rows_by_worker_share(total, threads, counts):
    ranges = engine._ranges(total, threads)
    assert [c for _, c in ranges] == counts
    assert [s for s, _ in ranges] == [sum(counts[:k]) for k in range(len(counts))]


def test_null_and_power_domains_do_not_collide():
    # same seed and index, different domains: different draws
    nul = null_statistics(12, 6, 42, threads=1)
    alt = alternative_statistics(MixtureSpec(n=12, eps=0.0, mu=0.0), 6, 42, threads=1)
    assert not np.array_equal(nul[StatisticKind.HC], alt[StatisticKind.HC])


_ALT = mixture_from(9, 0.6)

# critical values of `_level_task` tests: crossed by most rows, by some and
# by few
_LEVEL_CVS = (("hc", (1.0, 2.5, 4.0)), ("bj", (0.5, 2.0, 4.0)))


def _plans(n):
    return tuple(engine._level_plan(StatisticKind(k), np.array(c), n) for k, c in _LEVEL_CVS)


# (task, its arguments for rows 245..267, the width its blocks are sized by,
# the (domain, sub) of each of its readers): an odd n, and 23 rows across the
# edge between the first two groups of rng.GROUP_ROWS = 256 rows, which
# 7-row blocks leave ragged.
_TASKS = [
    pytest.param(engine._null_task, (9, 5, _ALL, 245, 23), 9, [(DOMAIN_NULL, 0)], id="null"),
    pytest.param(
        engine._level_task, (9, 5, _plans(9), 245, 23), 9, [(DOMAIN_NULL, 0)], id="levels",
    ),
    pytest.param(
        engine._alt_task, (9, _ALT.eps, _ALT.mu, 5, 2, _ALL, 245, 23), 9,
        [(DOMAIN_POWER, 2), (DOMAIN_SHIFT, 2)], id="alt",
    ),
    pytest.param(
        calibration._cal1_task, (5, 245, 23), calibration._CAL1_ROW_ELEMENTS,
        [(DOMAIN_CAL1, 0), (DOMAIN_CAL1, 1)], id="cal1",
    ),
    pytest.param(
        calibration._cal2_task, (5, 100, 256, 245, 23), 257,
        [(DOMAIN_CAL2, 0), (DOMAIN_CAL2, 1)], id="cal2",
    ),
]


@pytest.mark.parametrize("task,args,width,readers", _TASKS)
def test_tasks_do_not_depend_on_the_block_size(monkeypatch, task, args, width, readers):
    runs = []
    for rows in (1, 7, 23):  # 23 rows: the whole task in one block
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", rows * width)
        runs.append(task(args))
    assert runs[0].shape[-1] == 23
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)


@pytest.mark.parametrize("task,args,width,readers", _TASKS)
def test_a_task_seats_each_group_once_a_reader(monkeypatch, task, args, width, readers):
    # each reader of a task keeps a group's generator across the 7-row
    # blocks that touch it: groups 0 and 1, once each
    seated = []
    generator = rng.RandomStream.generator

    def counted(self):
        seated.append(self.stream_id)
        return generator(self)

    monkeypatch.setattr(rng.RandomStream, "generator", counted)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * width)
    task(args)
    groups = [stream_id_for(d, s, g) for d, s in readers for g in (0, 1)]
    assert sorted(seated) == sorted(groups)


_BIG_ALT = mixture_from(10_000, 0.6)


@pytest.mark.parametrize(
    "task,args",
    [
        pytest.param(engine._null_task, (1000, 5, _ALL, 0, 4000), id="null-1e3"),
        pytest.param(engine._null_task, (10_000, 5, _ALL, 0, 400), id="null-1e4"),
        pytest.param(
            engine._alt_task,
            (10_000, _BIG_ALT.eps, _BIG_ALT.mu, 5, 0, _ALL, 0, 200),
            id="alt-1e4",
        ),
        pytest.param(calibration._cal2_task, (5, 100_000, 4096, 0, 976), id="cal2"),
        pytest.param(engine._level_task, (1000, 5, _plans(1000), 0, 4000), id="levels-1e3"),
        pytest.param(engine._level_task, (10_000, 5, _plans(10_000), 0, 400), id="levels-1e4"),
    ],
)
def test_task_memory_is_bounded_by_its_blocks(task, args):
    # tracemalloc counts numpy's buffers and does not depend on the C
    # allocator's heap layout; a task built at full size peaks at 48-122 MiB.
    tracemalloc.start()
    try:
        task(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_cal1_task_memory_is_bounded_by_its_blocks():
    # 1e5 rows in blocks of about 4096: the result vector (0.8 MiB) and one
    # block's temporaries; drawn and transformed at once, they peak at 12 MiB
    tracemalloc.start()
    try:
        calibration._cal1_task((5, 0, 100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# Four tasks of one shape in a fresh interpreter: the first allocates its block
# buffers; minor page faults per block are counted over the other three.
_FAULTS = """
import math, resource, sys
sys.path.insert(0, {src!r})
import numpy as np
from sparsemix import calibration, engine
from sparsemix.stats import StatisticKind

HC, BJ, ALR = (StatisticKind(k) for k in ("hc", "bj", "alr"))
PLANS = lambda n: tuple(engine._level_plan(StatisticKind(k), np.array(c), n)
                        for k, c in {cvs!r})
task, args, width = {task}, {args}, {width}
task(args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    task(args)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
count = args[-1]
print(faults / (3 * math.ceil(count / engine.block_rows(count, width))))
"""


def _faults_per_block(task: str, args: str, width: int) -> float:
    """Minor page faults per block of `task` (an expression such as
    "engine._null_task") at the tuple expression `args`, rows `width` wide.

    A fresh interpreter, because this process's heap history decides whether
    freed temporaries go back to the OS.
    """
    src = str(Path(sparsemix.__file__).parents[1])
    script = _FAULTS.format(src=src, task=task, args=args, width=width, cvs=_LEVEL_CVS)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.parametrize(
    "task,n,count,per_row",
    [
        pytest.param("engine._null_task", 1000, 2000, "(HC, BJ)", id="null-1e3"),
        pytest.param("engine._null_task", 10_000, 400, "(HC, BJ, ALR)", id="null-1e4"),
        pytest.param("engine._level_task", 1000, 2000, "PLANS(1000)", id="levels-1e3"),
        pytest.param("engine._level_task", 10_000, 400, "PLANS(10_000)", id="levels-1e4"),
    ],
)
def test_null_blocks_reuse_their_buffers_without_page_faults(task, n, count, per_row):
    # Blocks that allocate their temporaries fault about 600 pages each back
    # in.  per_row is what a task computes of each row: its kinds or plans.
    args = f"({n}, 5, {per_row}, 0, {count})"
    assert _faults_per_block(task, args, n) <= 16


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_cal2_blocks_reuse_their_buffer_without_page_faults():
    # A cal2 block that allocates its uniforms and bridge faults about 450
    # pages back in.
    args = "(5, 100_000, 4096, 0, 976)"
    assert _faults_per_block("calibration._cal2_task", args, 4097) <= 16
