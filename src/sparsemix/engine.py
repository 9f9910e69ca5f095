"""Batched Monte Carlo evaluation of the statistics under null and alternative.

Every simulation, here and in the ALR limit law, runs through `simulate`:
one task-sizing rule, one pool map, one join in row order.  Inside a task,
`in_blocks` runs the whole pipeline (uniforms, p-values or bridge, sort,
kernels) on blocks of about BLOCK_ELEMENTS elements, so a block's temporaries
stay in a core's L2 cache and a task's memory does not grow with its size.
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
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InsufficientReplicates, SampleTooSmall
from .mixture import MixtureSpec, alternative_pvalues
from .rng import DOMAIN_NULL, DOMAIN_POWER, seats_for, uniform_rows
from .stats import P_MAX, P_MIN, StatisticKind, _row_stats, supported_kinds

# Elements per pool task: bounds the rows of one task, not its memory.
ELEMENTS_PER_BATCH = 4_000_000
# Elements per block inside a task (1 MiB of doubles), sized to stay in L2.
BLOCK_ELEMENTS = 1 << 17


def resolve_threads(threads: int) -> int:
    """0 means all available cores; otherwise the explicit worker count."""
    if threads < 0:
        raise ConfigError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


def map_tasks(fn, tasks: list, threads: int) -> list:
    """Run fn over tasks, in order, optionally on a process pool."""
    workers = resolve_threads(threads)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:
        ctx = multiprocessing.get_context()
    with ctx.Pool(min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _ranges(total: int, width: int, threads: int) -> list[tuple[int, int]]:
    """(start, count) tasks over `total` rows of `width` elements each.

    A task holds at most ELEMENTS_PER_BATCH // width rows, and at most its
    even share of the resolved workers, so no worker sits idle while another
    runs a job that fits in one batch.
    """
    per_task = min(ELEMENTS_PER_BATCH // width, -(-total // resolve_threads(threads)))
    per_task = max(1, per_task)
    return [(s, min(per_task, total - s)) for s in range(0, total, per_task)]


def simulate(task, params: tuple, total: int, width: int, threads: int) -> np.ndarray:
    """Rows 0..total-1 of a simulation, `width` elements each, in row order.

    task((*params, start, count)) returns an array whose last axis holds rows
    start..start+count-1; the tasks from _ranges are joined along that axis.
    """
    tasks = [(*params, start, count) for start, count in _ranges(total, width, threads)]
    return np.concatenate(map_tasks(task, tasks, threads), axis=-1)


def in_blocks(block, shape: tuple, start: int, width: int) -> np.ndarray:
    """Rows start..start+shape[-1]-1 of a task, `width` elements each, run in
    blocks of max(1, BLOCK_ELEMENTS // width) rows.

    block(s, c) returns the results of rows s..s+c-1 along its last axis; they
    are written into one preallocated array of the given shape.
    """
    out = np.empty(shape)
    count = shape[-1]
    rows = max(1, BLOCK_ELEMENTS // width)
    for lo in range(0, count, rows):
        c = min(rows, count - lo)
        out[..., lo : lo + c] = block(start + lo, c)
    return out


def _null_rows(n: int, master_seed: int, start: int, count: int, *, seats=None) -> np.ndarray:
    """Sorted clamped p-value matrix for null replicates start..start+count-1."""
    m = uniform_rows(master_seed, DOMAIN_NULL, 0, start, count, n, seats=seats)
    np.clip(m, P_MIN, P_MAX, out=m)
    m.sort(axis=1)
    return m


def _alt_rows(
    n: int,
    eps: float,
    mu: float,
    master_seed: int,
    sub: int,
    start: int,
    count: int,
    *,
    seats=None,
) -> np.ndarray:
    """Sorted clamped p-value matrix for alternative replicates.

    Each row is 2n uniforms of its stream: the first n pick the shifted
    components, the next n give the p-values through
    mixture.alternative_pvalues, which inverts only the shifted coordinates
    to normals.
    """
    u = uniform_rows(master_seed, DOMAIN_POWER, sub, start, count, 2 * n, seats=seats)
    p = alternative_pvalues(u[:, :n], u[:, n:], eps, mu)
    np.clip(p, P_MIN, P_MAX, out=p)
    p.sort(axis=1)
    return p


def _null_task(args) -> np.ndarray:
    """(len(kinds), count) statistics of null replicates start..start+count-1,
    computed in blocks of BLOCK_ELEMENTS, with one generator (and one
    derivation of stream states) for the whole task."""
    n, master_seed, kinds, start, count = args
    seats = seats_for(DOMAIN_NULL, 0, start, count)

    def block(s: int, c: int) -> list[np.ndarray]:
        stats = _row_stats(_null_rows(n, master_seed, s, c, seats=seats), n, kinds)
        return [stats[k] for k in kinds]

    return in_blocks(block, (len(kinds), count), start, n)


def _alt_task(args) -> np.ndarray:
    """(len(kinds), count) statistics of alternative replicates, in blocks of
    BLOCK_ELEMENTS uniforms with one generator for the whole task."""
    n, eps, mu, master_seed, sub, kinds, start, count = args
    seats = seats_for(DOMAIN_POWER, sub, start, count)

    def block(s: int, c: int) -> list[np.ndarray]:
        p = _alt_rows(n, eps, mu, master_seed, sub, s, c, seats=seats)
        stats = _row_stats(p, n, kinds)
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

    Returned arrays are cached and shared; callers must not mutate them.
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
        stats = simulate(_null_task, (n, master_seed, compute), reps, n, threads)
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
    kinds = _check_request(spec.n, reps, kinds)
    params = (spec.n, spec.eps, spec.mu, master_seed, sub, kinds)
    stats = simulate(_alt_task, params, reps, 2 * spec.n, threads)
    return dict(zip(kinds, stats))
