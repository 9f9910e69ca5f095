"""Batched Monte Carlo engine: scalar agreement, batching, blocks, caching."""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special
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
from sparsemix.rng import DOMAIN_NULL, DOMAIN_POWER, U_FLOOR


@pytest.fixture(autouse=True)
def _clean_cache():
    engine._null_entry.cache_clear()
    yield
    engine._null_entry.cache_clear()


def _numpy_row(seed, domain, sub, j, width):
    """The oracle: row j of (domain, sub), `width` wide, which is draws
    [k * width, (k + 1) * width), k = j % GROUP_ROWS, of numpy's own
    Generator(PCG64(SeedSequence((seed, stream_id_for(domain, sub,
    j // GROUP_ROWS)))))."""
    group, k = divmod(j, rng.GROUP_ROWS)
    seq = np.random.SeedSequence((seed, stream_id_for(domain, sub, group)))
    return np.random.Generator(np.random.PCG64(seq)).random((k + 1) * width)[k * width :]


def _renyi_low(u, unshifted, m):
    """The oracle for the unshifted part of a row: the min(m, N) smallest of
    N = `unshifted` uniforms, from the Renyi spacings of the uniforms u."""
    k = np.arange(1, min(m, unshifted) + 1)
    return -np.expm1(np.cumsum(np.log(1.0 - u[: k.size]) / (unshifted + 1 - k)))


def _scored(low, n):
    """The sample that hc_star and friends score: the lower half, padded
    with ones that they never read."""
    return prepare(np.concatenate([low, np.ones(n - low.size)]))


def test_null_batch_matches_scalar_path_bitwise():
    # more rows than a group: rows 256.. come from the second group's stream
    n, reps, seed = 40, rng.GROUP_ROWS + 9, 314
    got = null_statistics(n, reps, seed, threads=1)
    for j in range(reps):
        s = _scored(_renyi_low(_numpy_row(seed, DOMAIN_NULL, 0, j, n // 2), n, n // 2), n)
        assert got[StatisticKind.HC][j] == hc_star(s)
        assert got[StatisticKind.BJ][j] == bj_plus(s)
        assert got[StatisticKind.ALR][j] == log_alr(s)


def test_alternative_batch_matches_scalar_path_bitwise():
    # row j from numpy alone: K by the Bin(n, eps) CDF of its first draw, m
    # spacings, then K shifted uniforms, in a row as wide as the most shifts
    # a row can have; at eps = 0.6 most rows shift more than n - m
    # coordinates, so fewer than m unshifted p-values exist.  Rows 250..265
    # cross from the first group into the second.
    seed, sub, start, count = 99, 3, 250, 16
    for eps in (0.1, 0.6):
        spec = MixtureSpec(n=30, eps=eps, mu=2.0)
        n, m = spec.n, spec.n // 2
        got = engine._alt_task((n, eps, spec.mu, seed, sub, _ALL, start, count))
        cdf = sps.binom.cdf(np.arange(n + 1), n, spec.eps)
        for i in range(count):
            u = _numpy_row(seed, DOMAIN_POWER, sub, start + i, engine._row_width(n, eps))
            shifts = int(np.searchsorted(cdf, u[0], side="right"))
            unshifted = _renyi_low(u[1 : 1 + m], n - shifts, m)
            z = special.ndtri(np.fmax(u[1 + m : 1 + m + shifts], U_FLOOR)) + spec.mu
            shifted = 0.5 * special.erfc(z / math.sqrt(2.0))
            s = _scored(np.sort(np.concatenate([unshifted, shifted]))[:m], n)
            assert tuple(got[:, i]) == (hc_star(s), bj_plus(s), log_alr(s))


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
        engine._null_entry.cache_clear()
        runs.append(null_statistics(n, reps, seed, threads=threads))
    for k in runs[0]:
        for other in runs[1:]:
            assert np.array_equal(runs[0][k], other[k])


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


def test_null_cache_shares_arrays():
    a = null_statistics(20, 10, 1, threads=1)
    b = null_statistics(20, 10, 1, threads=1)
    for k in a:
        assert a[k] is b[k]
    # subset requests reuse the cached arrays
    c = null_statistics(20, 10, 1, kinds=(StatisticKind.HC,), threads=1)
    assert set(c) == {StatisticKind.HC}
    assert c[StatisticKind.HC] is a[StatisticKind.HC]


def test_cached_null_arrays_are_read_only():
    first = null_statistics(20, 10, 1, kinds=(StatisticKind.HC,), threads=1)
    later = null_statistics(20, 10, 1, threads=1)  # a second pass adds BJ and ALR
    for stats in (first, later):
        for v in stats.values():
            with pytest.raises(ValueError):
                v[0] = 0.0


def test_null_kinds_added_on_demand_equal_one_pass(monkeypatch):
    hc, bj, alr = StatisticKind.HC, StatisticKind.BJ, StatisticKind.ALR
    passes = []
    run_tasks = engine.map_tasks

    def counted(fn, tasks, threads):
        passes.append(1)
        return run_tasks(fn, tasks, threads)

    monkeypatch.setattr(engine, "map_tasks", counted)
    first = null_statistics(40, 300, 9, kinds=(hc,), threads=1)
    cached = engine._null_entry(40, 300, 9)
    assert set(cached) == {hc}  # BJ and ALR were not computed
    later = null_statistics(40, 300, 9, kinds=(bj, hc), threads=1)
    assert list(later) == [bj, hc]
    assert engine._null_entry(40, 300, 9) is cached
    assert set(cached) == {hc, bj, alr}  # the second pass fills in every kind
    assert cached[hc] is first[hc]
    null_statistics(40, 300, 9, kinds=(alr,), threads=1)
    assert len(passes) == 2
    engine._null_entry.cache_clear()
    whole = null_statistics(40, 300, 9, threads=1)
    for k in (hc, bj, alr):
        assert np.array_equal(cached[k], whole[k])


def test_null_cache_is_keyed_and_bounded():
    null_statistics(20, 10, 1, threads=1)
    null_statistics(20, 10, 2, threads=1)
    info = engine._null_entry.cache_info
    assert info().currsize == 2
    for seed in range(3, 3 + info().maxsize):
        null_statistics(20, 10, seed, threads=1)
    assert info().currsize == info().maxsize


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


_ALL = (StatisticKind.HC, StatisticKind.BJ, StatisticKind.ALR)
_ALT = mixture_from(9, 0.6)

# (task, its arguments for rows 245..267, the width its blocks are sized by):
# an odd n, and 23 rows across the edge between the first two groups of
# rng.GROUP_ROWS = 256 rows, which 7-row blocks leave ragged.
_TASKS = [
    pytest.param(engine._null_task, (9, 5, _ALL, 245, 23), 9, id="null"),
    pytest.param(
        engine._alt_task, (9, _ALT.eps, _ALT.mu, 5, 2, _ALL, 245, 23), 9, id="alt"
    ),
    pytest.param(calibration._cal2_task, (5, 100, 256, 245, 23), 258, id="cal2"),
]


@pytest.mark.parametrize("task,args,width", _TASKS)
def test_tasks_do_not_depend_on_the_block_size(monkeypatch, task, args, width):
    runs = []
    for rows in (1, 7, 23):  # 23 rows: the whole task in one block
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", rows * width)
        runs.append(task(args))
    assert runs[0].shape[-1] == 23
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)


@pytest.mark.parametrize(
    "task,args,width,groups",
    [
        # 7-row blocks of rows 245..267: 252..258 cross into group 1, and
        # each block of uniforms seats the groups it touches
        pytest.param(*_TASKS[0].values, [0, 0, 1, 1, 1], id="null"),
        pytest.param(*_TASKS[1].values, [0, 0, 1, 1, 1], id="alt"),
        # cal2 rows are drawn in order, one seat a group for the whole task
        pytest.param(*_TASKS[2].values, [0, 1], id="cal2"),
    ],
)
def test_a_task_seats_each_group_once_a_block(monkeypatch, task, args, width, groups):
    seated = []
    generator = rng.RandomStream.generator

    def counted(self):
        seated.append(self.stream_id & 0xFFFFFFFF)  # the group index
        return generator(self)

    monkeypatch.setattr(rng.RandomStream, "generator", counted)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * width)
    task(args)
    assert seated == groups


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
from sparsemix import calibration, engine
from sparsemix.stats import StatisticKind

HC, BJ, ALR = (StatisticKind(k) for k in ("hc", "bj", "alr"))
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
    script = _FAULTS.format(src=src, task=task, args=args, width=width)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.parametrize(
    "n,count,kinds",
    [
        pytest.param(1000, 2000, "HC, BJ", id="null-1e3"),
        pytest.param(10_000, 400, "HC, BJ, ALR", id="null-1e4"),
    ],
)
def test_null_blocks_reuse_their_buffers_without_page_faults(n, count, kinds):
    # Blocks that allocate their temporaries fault about 600 pages each back in.
    args = f"({n}, 5, ({kinds}), 0, {count})"
    assert _faults_per_block("engine._null_task", args, n) <= 16


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_cal2_blocks_reuse_their_buffer_without_page_faults():
    # A cal2 block that allocates its uniforms and bridge faults about 450
    # pages back in.
    args = "(5, 100_000, 4096, 0, 976)"
    assert _faults_per_block("calibration._cal2_task", args, 4098) <= 16
