"""Batched Monte Carlo evaluation of the statistics under null and alternative.

Every simulation, here and in the ALR limit law, runs through `simulate`:
one task per worker, each with a near-equal share of the rows, one pool map,
one join in row order.  `workers` opens one process pool for a whole command
and every map inside it reuses that pool; a map with no pool open opens one
for itself.  Inside a task, `in_blocks` runs the whole pipeline (uniforms,
then the sorted lower half of each row's p-values or the bridge, then the
kernels) on blocks of BLOCK_ELEMENTS // n rows, or about BLOCK_ELEMENTS
elements of the bridge, so a block's temporaries stay in a core's L2 cache
and a task's memory does not grow with its size; a task allocates its block
buffers once and every block writes into them.

A task reads its draws through one `rng.Rows` reader per family of draws,
which seats each group of rng.GROUP_ROWS replicates once and keeps it across
the task's blocks.  `_lower_log1m`, the one sampler of null and
alternative rows, draws only the m = n // 2 smallest p-values of a
replicate that the statistics read, as L = log(1 - p): m spacings and,
under the alternative, a shift count and the shifted normals, so it
neither draws nor sorts the upper half.  One task, `_row_task`, samples
every null and alternative row; its blocks reduce L either to statistics,
through the p-values that `_lower_rows` forms for the kernels, or to levels.

`null_levels` needs no statistic: HC and BJ are maxima of terms decreasing
in p, so a replicate exceeds a critical value exactly when its L crosses
that value's boundary (`stats._log1m_boundaries`), and a null row is
compared with the boundaries of the critical values asked for; the
kernels decide only the rows that fall within rounding of one.

Replicate j of a run is a pure function of master_seed and its coordinates
(domain, sub, j), whatever task or block draws it, and every reduction runs
along a row, so the result vectors do not depend on task size, block size
or worker count.  No statistic, level or limit-law draw outlives its call,
here or anywhere in the package: each call simulates what it asks for once
and returns new arrays.  Only read-only tables are cached: those the
samplers read (`_renyi_denominators`, `_shift_cdf`), the kernels' columns
in `stats`, and cal2's bridge coefficients in `calibration`.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Collection
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    ConfigError,
    InsufficientReplicates,
    OutOfRange,
    SampleTooSmall,
    UnsupportedStatistic,
    WorkerLost,
    check_integers,
)
from .mixture import MixtureSpec, pvalue
from .rng import DOMAIN_NULL, DOMAIN_POWER, DOMAIN_SHIFT, Rows
from .stats import (
    P_MAX,
    P_MIN,
    StatisticKind,
    _log1m_boundaries,
    _row_stats,
    supported_kinds,
)

# Elements per block inside a task (1 MiB of doubles), sized to stay in L2.
BLOCK_ELEMENTS = 1 << 17


def resolve_threads(threads: int) -> int:
    """0 means all available cores; otherwise the explicit worker count, an int."""
    [threads] = check_integers(threads=threads)
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


def in_blocks(block, shape: tuple, width: int, dtype=float) -> np.ndarray:
    """The shape[-1] rows of a task, `width` elements each, run in blocks of
    block_rows(shape[-1], width) rows, in order.

    block(c) returns the results of the task's next c rows along its last
    axis; they are written into one preallocated array of the given shape
    and dtype.
    """
    out = np.empty(shape, dtype)
    count = shape[-1]
    rows = block_rows(count, width)
    for lo in range(0, count, rows):
        c = min(rows, count - lo)
        out[..., lo : lo + c] = block(c)
    return out


def _task_buffers(rows: int, widths: tuple, n: int) -> tuple[list[np.ndarray], tuple]:
    """A task's block buffers: a (rows, w) float buffer for each width w in
    `widths`, and the scratch of `_row_stats` or `_row_levels` at sample
    size n, a (rows, n // 2) float and a (rows, n // 2) bool buffer.  The float buffers are one
    allocation: once glibc has unmapped one chunk of that size it keeps the
    next on its heap when freed, so a later task of the same shape faults
    none of it in again."""
    m = n // 2
    flat = np.empty(rows * (sum(widths) + m))
    *bufs, ell = np.split(flat, [rows * w for w in accumulate(widths)])
    bufs = [buf.reshape(rows, w) for buf, w in zip(bufs, widths)]
    return bufs, (ell.reshape(rows, m), np.empty((rows, m), dtype=bool))


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


def _readers(
    n: int, eps: float, master_seed: int, domain: int, sub: int, start: int, count: int
) -> tuple[Rows, Rows | None]:
    """The readers of replicates start..start+count-1 on (domain, sub) of
    the mixture with a fraction eps shifted, in the layout the `rng`
    docstring gives.  At eps = 0, m uniforms a row and no normals; a null
    row is eps = 0 on (DOMAIN_NULL, 0).  Otherwise 1 + m uniforms a row, and
    as many normals of (DOMAIN_SHIFT, sub) as the most shifts a row can
    have, one less than the size of its Bin(n, eps) CDF table."""
    m = n // 2
    if eps == 0.0:
        return Rows(master_seed, domain, sub, start, count, m), None
    shifts = _shift_cdf(n, eps).size - 1
    return (
        Rows(master_seed, domain, sub, start, count, 1 + m),
        Rows(master_seed, DOMAIN_SHIFT, sub, start, count, shifts, normal=True),
    )


def _buffer_widths(n: int, uniforms: Rows, normals: Rows | None) -> tuple[int, ...]:
    """Widths of the row buffers of `_lower_rows`: the uniforms, with normals
    the normals and the row that merges them, m + their width, and last the
    p-values, m = n // 2."""
    m = n // 2
    if normals is None:
        return (uniforms.width, m)
    return (uniforms.width, normals.width, m + normals.width, m)


def _lower_log1m(
    n: int,
    eps: float,
    mu: float,
    uniforms: Rows,
    normals: Rows | None,
    count: int,
    bufs: list[np.ndarray],
) -> np.ndarray:
    """(count, m) L_i = log(1 - p_(i)) of the sorted lower halves p_(1..m),
    m = n // 2, of the next `count` replicates of the mixture with a
    fraction eps shifted by mu, read from `uniforms` and `normals` in the
    layout the `rng` docstring gives.  The null is eps = 0 and no normals.

    K ~ Bin(n, eps) coordinates are shifted (none when eps = 0).  The m
    smallest of the N = n - K unshifted p-values come from the Renyi
    representation (Renyi 1953; Devroye 1986, ch. V): their
    L_i = sum_{k<=i} log(1 - u_k) / (N - k + 1) (1 - u is exact on the
    2^-53 grid), of which the first min(m, N) exist.  The K shifted
    p-values are pvalue(Z + mu) of a row's first K normals Z, one call per
    block.  A block where some row shifts merges them in the domain
    S = -log(1 - p), which sorts as p does: S = -log1p(-pvalue(Z + mu))
    joins the row of S = -L, and a stable sort of its first m + max K
    columns orders it; L = -S follows.

    The rows are formed in `bufs`, (at least count, w) float64 buffers for
    each width w of `_buffer_widths`, of which the null reads only the
    first; the divisors, when some row shifts, in the p-values' buffer, the
    last.  The result is the last m columns of the first buffer, the
    uniforms'.
    """
    m = n // 2
    u, *rest = (buf[:count] for buf in bufs)
    uniforms.read(u)
    shifts = 0
    if normals is not None:
        z, row, p = rest
        normals.read(z)
        k = np.searchsorted(_shift_cdf(n, eps), u[:, 0], side="right")
        shifts = int(k.max(initial=0))
    log1m = u[:, -m:]
    # log(1 - u_k) / (N - k + 1), summed along the row: L, or S = -L, formed
    # with negated divisors, where the shifted values are merged
    x = row[:, :m] if shifts else log1m
    np.subtract(1.0, log1m, out=x)
    np.log(x, out=x)
    den = _renyi_denominators(n)
    if shifts:
        den = np.subtract(k[:, None].astype(float), den, out=p)
        short = shifts > n - m  # some row has fewer than m unshifted p-values
        if short:
            np.fmin(den, -1.0, out=den)
    x /= den
    np.cumsum(x, axis=1, out=x)
    if shifts:
        if short:
            x[np.arange(m) >= (n - k)[:, None]] = np.inf
        tail = row[:, m : m + shifts]
        used = np.arange(shifts) < k[:, None]
        with np.errstate(divide="ignore"):  # p = 1 gives S = inf
            tail[used] = -np.log1p(-pvalue(z[:, :shifts][used] + mu))
        tail[~used] = np.inf
        row[:, : m + shifts].sort(axis=1, kind="stable")
        np.negative(x, out=log1m)
    return log1m


def _lower_rows(
    n: int,
    eps: float,
    mu: float,
    uniforms: Rows,
    normals: Rows | None,
    count: int,
    bufs: list[np.ndarray],
) -> np.ndarray:
    """(count, m) sorted lower halves p_(1..m) = -expm1(L_i), m = n // 2,
    clamped to [P_MIN, P_MAX], of the replicates of `_lower_log1m`, formed
    in `bufs`, one for each width of `_buffer_widths`.  The result is a view
    of the last buffer, and L is left in the last m columns of the first,
    for `_row_stats`.
    """
    log1m = _lower_log1m(n, eps, mu, uniforms, normals, count, bufs)
    p = bufs[-1][:count]
    np.expm1(log1m, out=p)
    np.negative(p, out=p)
    return np.clip(p, P_MIN, P_MAX, out=p)


# The names through which `_row_task` forms the p-values of null and of
# alternative rows: perfbench/tracer.py times each as a layer of its own.
_null_rows = _alt_rows = _lower_rows


def _row_levels(
    ell: np.ndarray, n: int, plan: tuple, sub: np.ndarray, cross: np.ndarray
) -> np.ndarray:
    """For each row of L = log(1 - p) rows `ell`, the number of the plan's
    critical values that the kind's statistic of the row exceeds, exactly
    as `_row_stats` of the clamped p = -expm1(L) would find it.

    plan is (kind, cvs, loose, tight) from `_level_plan`.  Level by level,
    on the rows that crossed every loose boundary so far, a row crosses
    when some L_i exceeds loose[k]; its level is the last one it crosses,
    and no kernel finds it higher.  One tight compare, at that level and
    at the row's first crossing there, confirms it; the kernels decide the
    few rows it does not.  The crossing rows and their compares are formed
    in `sub` and `cross`, a float and a bool buffer of at least ell's shape,
    so a block allocates no row-sized temporary.
    """
    kind, cvs, loose, tight = plan
    rows = len(ell)
    level = np.zeros(rows, dtype=np.intp)
    first = np.zeros(rows, dtype=np.intp)
    crossing, part = np.arange(rows), ell
    for k, bound in enumerate(loose, 1):
        hit = np.greater(part, bound, out=cross[: len(part)])
        j = hit.argmax(axis=1)  # the first crossing, or 0 where none
        kept = hit[np.arange(len(part)), j]
        crossing, j = crossing[kept], j[kept]
        level[crossing], first[crossing] = k, j
        if k == len(loose) or not crossing.size:
            break
        # mode="clip" takes into `sub` unbuffered; every index is in range
        part = np.take(ell, crossing, axis=0, out=sub[: crossing.size], mode="clip")
    crossed = np.flatnonzero(level)
    at = first[crossed]
    unsure = crossed[ell[crossed, at] <= tight[level[crossed] - 1, at]]
    if unsure.size:
        log1m = ell[unsure]
        p = np.clip(-np.expm1(log1m), P_MIN, P_MAX)
        stat = _row_stats(p, n, (kind,), log1m=log1m)[kind]
        level[unsure] = np.sum(stat[:, None] > cvs, axis=1)
    return level


def _row_task(args) -> np.ndarray:
    """(len(reduce), count) reductions of replicates start..start+count-1 of
    the mixture with a fraction eps shifted by mu, on (domain, sub): a null
    row is eps = 0 on (DOMAIN_NULL, 0).  `reduce` is either statistic kinds,
    whose statistics a row gets, or plans of `_level_plan`, whose levels it
    gets (`_row_levels`).

    The rows run in blocks of BLOCK_ELEMENTS // n rows with one set of
    readers and one set of block buffers for the whole task, wide enough
    for a row that shifts the most coordinates a row can; the last, shorter
    block uses their leading rows.  A block of levels forms only L, so
    without normals it needs no p-values' buffer and gets none.
    """
    n, eps, mu, master_seed, domain, sub, reduce, start, count = args
    m = n // 2
    uniforms, normals = _readers(n, eps, master_seed, domain, sub, start, count)
    widths = _buffer_widths(n, uniforms, normals)
    levels = isinstance(reduce[0], tuple)
    if levels and normals is None:
        widths = widths[:1]
    bufs, scratch = _task_buffers(block_rows(count, n), widths, n)

    if levels:
        dtype = np.min_scalar_type(max(len(plan[1]) for plan in reduce))

        def block(c: int) -> list[np.ndarray]:
            ell = _lower_log1m(n, eps, mu, uniforms, normals, c, bufs)
            return [_row_levels(ell, n, plan, *scratch) for plan in reduce]
    else:
        dtype = float
        rows = _null_rows if domain == DOMAIN_NULL else _alt_rows

        def block(c: int) -> list[np.ndarray]:
            p = rows(n, eps, mu, uniforms, normals, c, bufs)
            stats = _row_stats(p, n, reduce, scratch, bufs[0][:c, -m:])
            return [stats[k] for k in reduce]

    return in_blocks(block, (len(reduce), count), n, dtype)


def check_sequence(values, name: str, what: str) -> None:
    """Refuse a bare value where a sequence of `what` is expected, before
    anything runs: a str (a kind or a method is one) would be read
    character by character, a number not at all, and an iterator once."""
    if isinstance(values, str) or not isinstance(values, Collection):
        raise ConfigError(f"{name} must be a sequence of {what}, not {values!r}")


def check_seed(master_seed: int) -> int:
    """The master seed as an int in [0, 2^64), or a typed error before
    anything runs: ConfigError for a non-integer, OutOfRange outside."""
    [master_seed] = check_integers(master_seed=master_seed)
    if not 0 <= master_seed < 2**64:
        raise OutOfRange(f"master_seed {master_seed} outside [0, 2^64)")
    return master_seed


def _check_request(n: int, reps: int, master_seed: int, kinds) -> tuple[int, int, int, tuple]:
    """(n, reps, master_seed, kinds) as ints and StatisticKinds supported at
    n, or a typed error before anything runs."""
    n, reps = check_integers(n=n, reps=reps)
    master_seed = check_seed(master_seed)
    if n < 2:
        raise SampleTooSmall(f"need n >= 2, got {n}")
    if reps < 1:
        raise InsufficientReplicates(f"need at least one replicate, got {reps}")
    available = supported_kinds(n)
    if kinds is None:
        return n, reps, master_seed, available
    check_sequence(kinds, "kinds", "statistic kinds, such as ('hc',)")
    kinds = tuple(StatisticKind(k) for k in kinds)
    if not kinds:
        raise ConfigError("need at least one statistic kind")
    for k in kinds:
        if k not in available:
            raise SampleTooSmall(f"{k.value} needs n >= 4, got n={n}")
    return n, reps, master_seed, kinds


def null_statistics(
    n: int,
    reps: int,
    master_seed: int,
    kinds: tuple[StatisticKind, ...] | None = None,
    *,
    threads: int = 0,
) -> dict[StatisticKind, np.ndarray]:
    """Statistic vectors over `reps` null replicates, keyed by kind: one
    simulation pass of the kinds asked for (every kind supported at n by
    default), in new arrays.  A kind's vector does not depend on which
    other kinds are computed with it."""
    n, reps, master_seed, kinds = _check_request(n, reps, master_seed, kinds)
    params = (n, 0.0, 0.0, master_seed, DOMAIN_NULL, 0, kinds)
    [stats] = simulate(_row_task, [params], reps, threads)
    return dict(zip(kinds, stats))


def _level_plan(kind: StatisticKind, cvs: np.ndarray, n: int) -> tuple:
    """(kind, cvs, loose, tight): the (len(cvs), n // 2) boundaries of
    `_row_levels` at c - d and c + d, d = n 2^-50 max(1, c).

    The log LR kernel is within 0.49 n 2^-52 max(1, c) of its exact term
    (tests/test_stats.py's mpmath oracle), and HC far closer; a boundary,
    found by the same term in floating point and rounded to L, is off by
    about as much again.  d, 4 n 2^-52 max(1, c), exceeds both together
    (rows planted on the boundaries need no more than d / 16), so a row
    beyond a loose boundary may exceed c and a row beyond a tight one
    does.  Below a loose c - d <= 0 every row counts as crossing.  Both
    are made monotone in the level, so a row that misses one loose
    boundary misses every higher one.
    """
    d = n * 2.0**-50 * np.fmax(cvs, 1.0)
    loose = np.full((cvs.size, n // 2), -np.inf)
    low = cvs - d > 0.0
    loose[low] = _log1m_boundaries(kind, (cvs - d)[low], n)
    tight = _log1m_boundaries(kind, cvs + d, n)
    return kind, cvs, np.minimum.accumulate(loose[::-1])[::-1], np.maximum.accumulate(tight)


def null_levels(
    n: int,
    reps: int,
    master_seed: int,
    cvs: dict[StatisticKind, list[float]],
    *,
    threads: int = 0,
) -> dict[StatisticKind, np.ndarray]:
    """For each kind of `cvs`, HC or BJ, and each of `reps` null replicates,
    the number of the kind's critical values cvs[kind] (ascending, distinct,
    finite and >= 0) that the replicate's statistic exceeds.

    The replicates are those of null_statistics(n, reps, master_seed), and
    level >= q exactly where its statistic > cvs[kind][q - 1].  Each is
    found by boundary crossing (`_row_levels`), so most rows never reach
    the kernels.
    """
    n, reps, master_seed, kinds = _check_request(n, reps, master_seed, tuple(cvs))
    plans = []
    for kind, values in zip(kinds, cvs.values()):
        if kind is StatisticKind.ALR:
            raise UnsupportedStatistic("alr is a weighted sum, not a maximum: it has no boundary")
        c = np.asarray(values, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c) & (c >= 0.0)) or np.any(np.diff(c) <= 0.0):
            raise ConfigError(f"{kind.value} critical values must be ascending, distinct, "
                              f"finite and >= 0, got {values!r}")
        plans.append(_level_plan(kind, c, n))
    params = (n, 0.0, 0.0, master_seed, DOMAIN_NULL, 0, tuple(plans))
    [levels] = simulate(_row_task, [params], reps, threads)
    return dict(zip(kinds, levels))


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
    specs[k] on stream sub-range first_sub + k, an integer; sub-ranges
    outside [0, 2^16) raise OutOfRange before anything runs.

    The tasks of every mixture share one map_tasks call, so no worker waits
    for the last task of one mixture before the next mixture starts.
    """
    if not specs:
        raise ConfigError("need at least one mixture")
    n = specs[0].n
    if any(spec.n != n for spec in specs):
        raise ConfigError("every mixture of a grid needs the same n")
    n, reps, master_seed, kinds = _check_request(n, reps, master_seed, kinds)
    [first_sub] = check_integers(first_sub=first_sub)
    if not 0 <= first_sub <= 2**16 - len(specs):
        raise OutOfRange(f"stream sub-ranges {first_sub}..{first_sub + len(specs) - 1} "
                         "outside [0, 2^16)")
    params = [
        (n, spec.eps, spec.mu, master_seed, DOMAIN_POWER, first_sub + k, kinds)
        for k, spec in enumerate(specs)
    ]
    return [dict(zip(kinds, stats)) for stats in simulate(_row_task, params, reps, threads)]
