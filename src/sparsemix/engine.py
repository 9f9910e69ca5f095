"""Batched Monte Carlo evaluation of the statistics under null and alternative.

Every simulation, here and in the ALR limit law, runs through `simulate`:
one task per worker, each with a near-equal share of the rows, one pool map,
one join in row order.  `workers` opens one process pool for a whole command
and every map inside it reuses that pool; a map with no pool open opens one
for itself.  Inside a task, `in_blocks` runs the whole pipeline (uniforms,
then the sorted lower half of each row's p-values or the bridge, then the
kernels) on blocks of BLOCK_ELEMENTS // n rows, or about BLOCK_ELEMENTS
elements of the bridge, so a block's temporaries stay in a core's L2 cache
and a task's memory does not grow with its size; a null or alternative task
allocates its block buffers once and every block writes into them.

A block draws its uniforms with one `rng.uniform_rows` call, which seats one
generator for each group of rng.GROUP_ROWS replicates that the block
touches.  `_lower_rows`, the one sampler of null and alternative rows, draws
only the m = n // 2 smallest p-values of a replicate that the statistics
read: m spacings and, under the alternative, a shift count and the shifted
values, so it neither draws nor sorts the upper half.

Replicate j of a run is a pure function of master_seed and its coordinates
(domain, sub, j), whatever task or block draws it, and every reduction runs
along a row, so the result vectors do not depend on task size, block size
or worker count.  Null statistic vectors are cached per (n, reps,
master_seed) so size tables and power-curve calibration at the same
configuration share one simulation pass.  The first pass computes only the
requested kinds; a later request for a kind it lacks re-simulates once and
adds every kind still missing, so no entry is simulated more than twice.
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
    """A task's block buffers: a flat draw buffer of rows * width elements and
    the `_row_stats` scratch at sample size n.  The draws and the two float
    scratch matrices are one allocation: once glibc has unmapped one chunk of
    that size it keeps the next on its heap when freed, so a later task of
    the same shape faults none of it in again."""
    m = n // 2
    flat = np.empty(rows * (width + 2 * m))
    a, b = flat[rows * width :].reshape(2, rows, m)
    return flat[: rows * width], (a, b, np.empty((rows, m), dtype=bool))


@lru_cache(maxsize=8)
def _renyi_denominators(n: int) -> np.ndarray:
    """n + 1 - k for k = 1..n // 2, read-only: the divisors of the null's
    exponential spacings."""
    d = (n + 1) - np.arange(1, n // 2 + 1, dtype=float)
    d.flags.writeable = False
    return d


@lru_cache(maxsize=16)
def _shift_cdf(n: int, eps: float) -> np.ndarray:
    """Read-only CDF of Bin(n, eps), eps > 0, at k = 0, 1, ..., up to the
    first k where it rounds to 1, which it equals exactly.  A uniform in
    [0, 1) inverts to at most that k, the table's size minus one.  The pmf
    is formed relative to its mode by the ratios pmf(k + 1) / pmf(k) =
    (n - k) / (k + 1) * eps / (1 - eps), which fall away from the mode on
    both sides, so nothing overflows and only negligible tail terms
    underflow."""
    k = np.arange(n, dtype=float)
    ratio = (n - k) / (k + 1) * (eps / (1.0 - eps))
    mode = min(int((n + 1) * eps), n)
    pmf = np.empty(n + 1)
    pmf[mode] = 1.0
    pmf[mode + 1 :] = np.cumprod(ratio[mode:])
    pmf[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    cdf = cdf[: np.searchsorted(cdf, 1.0) + 1].copy()
    cdf[-1] = 1.0
    cdf.flags.writeable = False
    return cdf


def _row_width(n: int, eps: float) -> int:
    """Draws per row of `_lower_rows`: the m = n // 2 spacings, and with
    eps > 0 the shift count and room for the most shifts a row can have."""
    return n // 2 + (_shift_cdf(n, eps).size if eps > 0.0 else 0)


def _lower_rows(
    n: int,
    eps: float,
    mu: float,
    master_seed: int,
    domain: int,
    sub: int,
    start: int,
    count: int,
    buf: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """(count, m) sorted lower halves p_(1..m), m = n // 2, clamped to
    [P_MIN, P_MAX], of replicates start..start+count-1 of the mixture with a
    fraction eps shifted by mu; row j is replicate start + j of (domain,
    sub), drawn by `uniform_rows` in the layout the `rng` docstring gives.
    The null is eps = 0.

    K ~ Bin(n, eps) coordinates are shifted (none when eps = 0).  The m
    smallest of the N = n - K unshifted p-values come from the Renyi
    representation (Renyi 1953; Devroye 1986, ch. V),
    p_(i) = -expm1(-sum_{k<=i} E_k / (N - k + 1)) with E_k = -log(1 - u_k)
    (1 - u is exact on the 2^-53 grid), of which the first min(m, N)
    exist.  The K shifted p-values are mixture.alternative_pvalues of their
    uniforms, one call per block, merged into the row by a stable sort of
    its first m + max K columns.

    The rows are formed in `buf`, a flat float64 buffer of at least
    count * _row_width(n, eps) elements, and the divisors N - k + 1, when
    some row shifts, in `tmp`, a float64 array of at least (count, m); each
    is new by default.  The result is a view of `buf`.
    """
    m, width = n // 2, _row_width(n, eps)
    lead = shifts = 0
    if buf is None:
        buf = np.empty(count * width)
    u = buf[: count * width].reshape(count, width)
    uniform_rows(master_seed, domain, sub, start, count, width, out=u)
    if eps > 0.0:
        k = np.searchsorted(_shift_cdf(n, eps), u[:, 0], side="right")
        lead, shifts = 1, int(k.max(initial=0))
    x = u[:, lead : lead + m]
    # -E_k / (N - k + 1), summed along the row
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    den = _renyi_denominators(n)
    short = shifts > n - m  # some row has fewer than m unshifted p-values
    if shifts:
        tmp = np.empty((count, m)) if tmp is None else tmp[:count]
        den = np.subtract(den, k[:, None].astype(float), out=tmp)
        if short:
            np.fmax(den, 1.0, out=den)
    x /= den
    np.cumsum(x, axis=1, out=x)
    np.expm1(x, out=x)
    np.negative(x, out=x)
    if shifts:
        if short:
            x[np.arange(m) >= (n - k)[:, None]] = np.inf
        tail = u[:, lead + m : lead + m + shifts]
        used = np.arange(shifts) < k[:, None]
        tail[used] = alternative_pvalues(tail[used], mu)
        tail[~used] = np.inf
        u[:, lead : lead + m + shifts].sort(axis=1, kind="stable")
    return np.clip(x, P_MIN, P_MAX, out=x)


def _null_rows(n: int, master_seed: int, start: int, count: int, *, buf=None) -> np.ndarray:
    """(count, n // 2) sorted, clamped lower halves of null replicates
    start..start+count-1: `_lower_rows` at eps = 0, formed in `buf`."""
    return _lower_rows(n, 0.0, 0.0, master_seed, DOMAIN_NULL, 0, start, count, buf)


def _alt_rows(
    n: int,
    eps: float,
    mu: float,
    master_seed: int,
    sub: int,
    start: int,
    count: int,
    *,
    buf=None,
    tmp=None,
) -> np.ndarray:
    """(count, n // 2) sorted, clamped lower halves of alternative
    replicates start..start+count-1 on stream sub-range `sub`: `_lower_rows`
    of the mixture, formed in `buf` with `tmp` as scratch."""
    return _lower_rows(n, eps, mu, master_seed, DOMAIN_POWER, sub, start, count, buf, tmp)


def _null_task(args) -> np.ndarray:
    """(len(kinds), count) statistics of null replicates start..start+count-1,
    computed in blocks of BLOCK_ELEMENTS // n rows with one set of block
    buffers for the whole task; the last, shorter block uses their leading
    rows."""
    n, master_seed, kinds, start, count = args
    buf, scratch = _task_buffers(block_rows(count, n), n // 2, n)

    def block(s: int, c: int) -> list[np.ndarray]:
        stats = _row_stats(_null_rows(n, master_seed, s, c, buf=buf), n, kinds, scratch)
        return [stats[k] for k in kinds]

    return in_blocks(block, (len(kinds), count), start, n)


def _alt_task(args) -> np.ndarray:
    """(len(kinds), count) statistics of alternative replicates, in blocks of
    the null's row count, with a draw buffer wide enough for a row that
    shifts the most coordinates a row can."""
    n, eps, mu, master_seed, sub, kinds, start, count = args
    buf, scratch = _task_buffers(block_rows(count, n), _row_width(n, eps), n)

    def block(s: int, c: int) -> list[np.ndarray]:
        p = _alt_rows(n, eps, mu, master_seed, sub, s, c, buf=buf, tmp=scratch[0])
        stats = _row_stats(p, n, kinds, scratch)
        return [stats[k] for k in kinds]

    return in_blocks(block, (len(kinds), count), start, n)


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
