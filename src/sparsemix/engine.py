"""Batched Monte Carlo evaluation of the statistics under null and alternative.

Every simulation, here and in the ALR limit law, runs through `simulate`:
one task per worker, each with a near-equal share of the rows, one pool map,
one join in row order.  `workers` opens one process pool for a whole command
and every map inside it reuses that pool; a map with no pool open opens one
for itself.  Inside a task, `in_blocks` runs the whole pipeline (uniforms,
p-values or bridge, lower-half sort, kernels) on blocks of about
BLOCK_ELEMENTS elements, so a block's temporaries stay in a core's L2 cache
and a task's memory does not grow with its size; a null or alternative task
allocates its block buffers once and every block writes into them.
Replicate j of a run is a pure function of (master_seed, stream_id), and
every reduction runs along a row, so the result vectors do not depend on
task size, block size or worker count.  Null statistic vectors are cached
per (n, reps, master_seed) so size tables and power-curve calibration at the
same configuration share one simulation pass.  The first pass computes only
the requested kinds; a later request for a kind it lacks re-simulates once
and adds every kind still missing, so no entry is simulated more than twice.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InsufficientReplicates, SampleTooSmall, WorkerLost
from .mixture import MixtureSpec, alternative_pvalues
from .rng import DOMAIN_NULL, DOMAIN_POWER, uniform_rows
from .stats import P_MAX, P_MIN, StatisticKind, _row_stats, supported_kinds

# Elements per block inside a task (1 MiB of doubles), sized to stay in L2.
BLOCK_ELEMENTS = 1 << 17


def resolve_threads(threads: int) -> int:
    """0 means all available cores; otherwise the explicit worker count."""
    if threads < 0:
        raise ConfigError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


# The pool of the innermost open `workers` block, if any.
_POOL: ContextVar[ProcessPoolExecutor | None] = ContextVar("sparsemix_pool", default=None)


@contextmanager
def workers(threads: int):
    """Run every map_tasks call inside the block on one process pool.

    The pool has resolve_threads(threads) workers, forked on its first map,
    and yields None at one worker.  A block opened inside another reuses the
    outer pool.  An exception leaving the block, KeyboardInterrupt included,
    cancels the tasks not yet started; either way every worker has exited
    when the block ends.
    """
    count = resolve_threads(threads)
    if count <= 1 or _POOL.get() is not None:
        yield _POOL.get()
        return
    # fork: workers inherit the imported package instead of importing numpy
    # again; the pool forks every worker on its first map, before it starts a
    # thread of its own
    ctx = None
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(count, mp_context=ctx)
    token = _POOL.set(pool)
    try:
        yield pool
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    finally:
        _POOL.reset(token)
        pool.shutdown()


def map_tasks(fn, tasks: list, threads: int) -> list:
    """Run fn over tasks, in order, on the open pool (or a pool of its own).

    One resolved worker, or a single task, runs in this process.  A worker
    that dies (killed by a signal, say) raises WorkerLost.
    """
    count = min(resolve_threads(threads), len(tasks))
    if count <= 1:
        return [fn(task) for task in tasks]
    with workers(count) as pool:
        try:
            return list(pool.map(fn, tasks))
        except BrokenProcessPool as exc:
            raise WorkerLost(f"a worker process died: {exc}") from exc


def _ranges(total: int, threads: int) -> list[tuple[int, int]]:
    """(start, count) tasks over `total` rows: min(workers, total) tasks of
    floor or ceil(total / workers) rows, one per resolved worker.  A task's
    memory is bounded by its blocks, not by its row count."""
    count = min(resolve_threads(threads), total)
    cuts = [total * k // count for k in range(1, count + 1)]
    return [(a, b - a) for a, b in zip([0, *cuts], cuts)]


def simulate(task, params: list[tuple], total: int, threads: int) -> list[np.ndarray]:
    """Rows 0..total-1 of one simulation per parameter tuple, in row order,
    split into one task per worker by _ranges; the tasks of every tuple go
    through one map_tasks call.

    task((*params[k], start, count)) returns an array whose last axis holds rows
    start..start+count-1; the tasks from _ranges are joined along that axis.
    """
    ranges = _ranges(total, threads)
    tasks = [(*p, start, count) for p in params for start, count in ranges]
    out = map_tasks(task, tasks, threads)
    k = len(ranges)
    return [np.concatenate(out[i * k : (i + 1) * k], axis=-1) for i in range(len(params))]


def block_rows(count: int, width: int) -> int:
    """Rows per block of a task of `count` rows, `width` elements each: about
    BLOCK_ELEMENTS elements, at least one row and at most the task."""
    return max(1, min(count, BLOCK_ELEMENTS // width))


def in_blocks(block, shape: tuple, start: int, width: int) -> np.ndarray:
    """Rows start..start+shape[-1]-1 of a task, `width` elements each, run in
    blocks of block_rows(shape[-1], width) rows.

    block(s, c) returns the results of rows s..s+c-1 along its last axis; they
    are written into one preallocated array of the given shape.
    """
    out = np.empty(shape)
    count = shape[-1]
    rows = block_rows(count, width)
    for lo in range(0, count, rows):
        c = min(rows, count - lo)
        out[..., lo : lo + c] = block(start + lo, c)
    return out


def _task_buffers(rows: int, width: int, n: int) -> tuple[np.ndarray, tuple]:
    """A task's block buffers: the (rows, width) uniform matrix and the
    `_row_stats` scratch at sample size n.  The uniforms and the two float
    scratch matrices are one allocation: once glibc has unmapped one chunk of
    that size it keeps the next on its heap when freed, so a later task of
    the same shape faults none of it in again."""
    m = n // 2
    flat = np.empty(rows * (width + 2 * m))
    u = flat[: rows * width].reshape(rows, width)
    a, b = flat[rows * width :].reshape(2, rows, m)
    return u, (a, b, np.empty((rows, m), dtype=bool))


def _lower_half(p: np.ndarray) -> np.ndarray:
    """p, a (rows, n) p-value matrix, with its m = n // 2 smallest entries per
    row moved to the front, clamped to [P_MIN, P_MAX] and sorted there: the
    only part `_row_stats` reads.  The upper half is left in any order and
    unclamped.  Clamping is monotone, so it commutes with the selection and
    the sort, and p[:, :m] equals the lower half of the fully sorted, clamped
    row bitwise."""
    m = p.shape[1] // 2
    p.partition(m - 1, axis=1)
    low = p[:, :m]
    np.clip(low, P_MIN, P_MAX, out=low)
    low.sort(axis=1)
    return p


def _null_rows(n: int, master_seed: int, start: int, count: int, *, out=None) -> np.ndarray:
    """P-value matrix for null replicates start..start+count-1, formed in
    `out` (a new array by default), whose lower half is sorted and clamped
    (see `_lower_half`)."""
    p = uniform_rows(master_seed, DOMAIN_NULL, 0, start, count, n, out=out)
    return _lower_half(p)


def _alt_rows(
    n: int,
    eps: float,
    mu: float,
    master_seed: int,
    sub: int,
    start: int,
    count: int,
    *,
    out=None,
) -> np.ndarray:
    """P-value matrix for alternative replicates, whose lower half is sorted
    and clamped (see `_lower_half`).

    Each row is 2n uniforms of its stream, drawn into `out` (a new array by
    default): the first n pick the shifted components, the next n give the
    p-values through mixture.alternative_pvalues, which inverts only the
    shifted coordinates to normals.  The p-values overwrite the first n
    columns, and the matrix returned is that (count, n) view.
    """
    u = uniform_rows(master_seed, DOMAIN_POWER, sub, start, count, 2 * n, out=out)
    pick = u[:, :n]
    return _lower_half(alternative_pvalues(pick, u[:, n:], eps, mu, out=pick))


def _null_task(args) -> np.ndarray:
    """(len(kinds), count) statistics of null replicates start..start+count-1,
    computed in blocks of BLOCK_ELEMENTS with one set of block buffers for
    the whole task; the last, shorter block uses their leading rows."""
    n, master_seed, kinds, start, count = args
    u, scratch = _task_buffers(block_rows(count, n), n, n)

    def block(s: int, c: int) -> list[np.ndarray]:
        p = _null_rows(n, master_seed, s, c, out=u[:c])
        stats = _row_stats(p, n, kinds, scratch)
        return [stats[k] for k in kinds]

    return in_blocks(block, (len(kinds), count), start, n)


def _alt_task(args) -> np.ndarray:
    """(len(kinds), count) statistics of alternative replicates, in blocks of
    BLOCK_ELEMENTS uniforms with one set of uniform and kernel buffers for
    the whole task."""
    n, eps, mu, master_seed, sub, kinds, start, count = args
    u, scratch = _task_buffers(block_rows(count, 2 * n), 2 * n, n)

    def block(s: int, c: int) -> list[np.ndarray]:
        p = _alt_rows(n, eps, mu, master_seed, sub, s, c, out=u[:c])
        stats = _row_stats(p, n, kinds, scratch)
        return [stats[k] for k in kinds]

    return in_blocks(block, (len(kinds), count), start, 2 * n)


def _check_request(n: int, reps: int, kinds) -> tuple[StatisticKind, ...]:
    if n < 2:
        raise SampleTooSmall(f"need n >= 2, got {n}")
    if reps < 1:
        raise InsufficientReplicates(f"need at least one replicate, got {reps}")
    available = supported_kinds(n)
    if kinds is None:
        return available
    kinds = tuple(kinds)
    if not kinds:
        raise ConfigError("need at least one statistic kind")
    for k in kinds:
        if k not in available:
            raise SampleTooSmall(f"{k.value} needs n >= 4, got n={n}")
    return kinds


@lru_cache(maxsize=8)
def _null_entry(n: int, reps: int, master_seed: int) -> dict[StatisticKind, np.ndarray]:
    """The cached statistic vectors of one null configuration, filled in by
    null_statistics; empty until its first simulation pass completes."""
    return {}


def null_statistics(
    n: int,
    reps: int,
    master_seed: int,
    kinds: tuple[StatisticKind, ...] | None = None,
    *,
    threads: int = 0,
) -> dict[StatisticKind, np.ndarray]:
    """Statistic vectors over `reps` null replicates, keyed by kind.

    Returned arrays are cached, shared and read-only.
    A configuration's first call computes only its `kinds`.  A later call
    asking for a kind the entry lacks runs a second simulation pass, which
    adds every supported kind still missing, so a third is never needed.
    """
    kinds = _check_request(n, reps, kinds)
    cached = _null_entry(n, reps, master_seed)
    if not cached:
        compute = kinds
    elif all(k in cached for k in kinds):
        compute = ()
    else:
        compute = tuple(k for k in supported_kinds(n) if k not in cached)
    if compute:
        [stats] = simulate(_null_task, [(n, master_seed, compute)], reps, threads)
        stats.flags.writeable = False
        cached.update(zip(compute, stats))
    return {k: cached[k] for k in kinds}


def alternative_statistics(
    spec: MixtureSpec,
    reps: int,
    master_seed: int,
    *,
    sub: int = 0,
    kinds: tuple[StatisticKind, ...] | None = None,
    threads: int = 0,
) -> dict[StatisticKind, np.ndarray]:
    """Statistic vectors over `reps` replicates of the given mixture.

    `sub` partitions the stream space between alternatives run under one
    master seed (e.g. the index of a beta grid point).
    """
    [stats] = alternative_grid([spec], reps, master_seed, first_sub=sub, kinds=kinds,
                               threads=threads)
    return stats


def alternative_grid(
    specs: list[MixtureSpec],
    reps: int,
    master_seed: int,
    *,
    first_sub: int = 0,
    kinds: tuple[StatisticKind, ...] | None = None,
    threads: int = 0,
) -> list[dict[StatisticKind, np.ndarray]]:
    """alternative_statistics of every mixture in `specs`, all of one n, with
    specs[k] on stream sub-range first_sub + k.

    The tasks of every mixture share one map_tasks call, so no worker waits
    for the last task of one mixture before the next mixture starts.
    """
    if not specs:
        raise ConfigError("need at least one mixture")
    n = specs[0].n
    if any(spec.n != n for spec in specs):
        raise ConfigError("every mixture of a grid needs the same n")
    kinds = _check_request(n, reps, kinds)
    params = [
        (n, spec.eps, spec.mu, master_seed, first_sub + k, kinds)
        for k, spec in enumerate(specs)
    ]
    return [
        dict(zip(kinds, stats))
        for stats in simulate(_alt_task, params, reps, threads)
    ]
