"""Batched Monte Carlo engine: scalar agreement, batching, blocks, caching."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
from sparsemix.mixture import alternative_pvalues, mixture_from
from sparsemix.rng import DOMAIN_NULL, DOMAIN_POWER


@pytest.fixture(autouse=True)
def _clean_cache():
    engine._null_entry.cache_clear()
    yield
    engine._null_entry.cache_clear()


def _numpy_stream(seed, domain, sub, j, width):
    """The oracle: the first `width` draws of numpy's own
    Generator(PCG64(SeedSequence((seed, stream_id))))."""
    seq = np.random.SeedSequence((seed, stream_id_for(domain, sub, j)))
    return np.random.Generator(np.random.PCG64(seq)).random(width)


def test_null_batch_matches_scalar_path_bitwise():
    n, reps, seed = 40, 25, 314
    got = null_statistics(n, reps, seed, threads=1)
    for j in range(reps):
        s = prepare(_numpy_stream(seed, DOMAIN_NULL, 0, j, n))
        assert got[StatisticKind.HC][j] == hc_star(s)
        assert got[StatisticKind.BJ][j] == bj_plus(s)
        assert got[StatisticKind.ALR][j] == log_alr(s)


def test_alternative_batch_matches_scalar_path_bitwise():
    spec = MixtureSpec(n=30, eps=0.1, mu=2.0)
    reps, seed, sub = 20, 99, 3
    got = alternative_statistics(spec, reps, seed, sub=sub, threads=1)
    n = spec.n
    for j in range(reps):
        u = _numpy_stream(seed, DOMAIN_POWER, sub, j, 2 * n)
        s = prepare(alternative_pvalues(u[:n], u[n:], spec.eps, spec.mu))
        assert got[StatisticKind.HC][j] == hc_star(s)
        assert got[StatisticKind.BJ][j] == bj_plus(s)
        assert got[StatisticKind.ALR][j] == log_alr(s)


# Rows 0..63 split into ragged tasks, one of them a single row.
_SPLIT = [(0, 5), (5, 1), (6, 30), (36, 28)]


def test_batch_size_does_not_change_results():
    n, reps, seed = 24, 64, 7
    whole = null_statistics(n, reps, seed, threads=1)
    kinds = tuple(whole)
    split = np.concatenate(
        [engine._null_task((n, seed, kinds, s, c)) for s, c in _SPLIT], axis=-1
    )
    for i, k in enumerate(kinds):
        assert np.array_equal(whole[k], split[i])


def test_thread_count_does_not_change_results():
    n, reps, seed = 24, 48, 8
    runs = []
    for threads in (1, 2, 5, 0):  # 5 workers: 5 tasks, more than the cores
        engine._null_entry.cache_clear()
        runs.append(null_statistics(n, reps, seed, threads=threads))
    for k in runs[0]:
        for other in runs[1:]:
            assert np.array_equal(runs[0][k], other[k])


def test_alternative_threads_and_batching_invariance():
    spec = MixtureSpec(n=16, eps=0.2, mu=1.5)
    base = alternative_statistics(spec, 64, 5, sub=1, threads=1)
    redone = alternative_statistics(spec, 64, 5, sub=1, threads=5)
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

# (task, its arguments for rows 3..25, row width): an odd n, and 23 rows,
# which 7-row blocks leave ragged.
_TASKS = [
    pytest.param(engine._null_task, (9, 5, _ALL, 3, 23), 9, id="null"),
    pytest.param(
        engine._alt_task, (9, _ALT.eps, _ALT.mu, 5, 2, _ALL, 3, 23), 18, id="alt"
    ),
    pytest.param(calibration._cal2_task, (5, 100, 256, 3, 23), 258, id="cal2"),
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


@pytest.mark.parametrize("task,args,width", _TASKS)
def test_a_task_derives_its_stream_states_once(monkeypatch, task, args, width):
    sizes = []
    derive = rng._pcg64_states

    def counted(master_seed, stream_ids):
        sizes.append(stream_ids.size)
        return derive(master_seed, stream_ids)

    monkeypatch.setattr(rng, "_pcg64_states", counted)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * width)
    rng._chunk_limbs.cache_clear()  # states cached by an earlier test
    task((*args[:-2], 0, rng.POSITION_CHUNK))
    assert sizes == [rng.POSITION_CHUNK]


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
