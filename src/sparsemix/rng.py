"""Reproducible random streams.

Every Monte Carlo draw in the package comes from a (master_seed, stream_id)
pair, so replicate j is a pure function of the seed pair and its coordinates
regardless of batching, thread count, or evaluation order.  Distinct stream
ids give statistically independent PCG64 streams.

Stream ids partition the id space by purpose:

    stream_id = domain << 48 | sub << 32 | index

where `domain` separates null simulation, power simulation, and the two
ALR limit-law samplers, and `sub` separates e.g. grid points within a power
study.  A stream is numpy's Generator(PCG64(SeedSequence((master_seed,
stream_id)))), which `RandomStream.generator()` builds afresh.

Replicates share streams in groups of GROUP_ROWS, as substreams of one
stream (L'Ecuyer, Munger, Oreshkin & Simard, Math. Comput. Simul. 135,
2017): replicate j of (domain, sub) draws from stream (domain, sub,
j // GROUP_ROWS), after the group's earlier rows.  A row is drawn one of
two ways:

* `uniform_rows`, a fixed `width` of Generator.random() draws: row j is
  draws [(j % GROUP_ROWS) * width, (j % GROUP_ROWS + 1) * width) of its
  group's stream.  A call seats one generator for each group it touches,
  advances it past the group's rows before the call's first (PCG64's advance
  costs O(log distance); O'Neill, PCG, 2014), and fills all of the group's
  rows with one random() call.  Seating costs ~10 us, which GROUP_ROWS rows
  share.
* `row_generators`, rows that take a varying number of draws: a group's rows
  are drawn in order from its generator, so a task that starts mid-group
  first draws and discards the group's earlier rows.

numpy.random is loaded on the first seat, not when the package is imported.

Row layouts, m = n // 2 (engine._lower_rows turns the first two into
sorted lower halves of p-values):

* Null (DOMAIN_NULL): m uniforms, the spacings of the m smallest of n
  uniform p-values.
* Alternative (DOMAIN_POWER), eps > 0: draw 0 gives the shift count K by
  inverting the Bin(n, eps) CDF, draws 1..m the spacings of the n - K
  unshifted p-values, and draws m+1..m+K the K shifted ones.  Rows are
  drawn wide enough for the most shifts any row can have; the draws past
  m + K are not read.  At eps = 0 a row is the null's m spacings.
* cal1 (DOMAIN_CAL1): 2 uniforms.
* cal2 (DOMAIN_CAL2), through `row_generators`: one Generator.random() and
  then grid + 1 Generator.standard_normal() draws (numpy's ziggurat).

NEP 19 freezes the bit streams of numpy's bit generators and SeedSequence,
but not the Generator methods that transform them, so every row is tied to
the numpy version, the cal2 rows through the ziggurat too.
tests/test_rng.py holds numpy's own SeedSequence as the oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .cephes import ndtri
from .errors import OutOfRange

DOMAIN_NULL = 0
DOMAIN_POWER = 1
DOMAIN_CAL1 = 2
DOMAIN_CAL2 = 3

# Uniforms from Generator.random() live in [0, 1); guard the left edge before
# inverting so ndtri never sees an exact 0 (and Exp(1) draws stay positive).
U_FLOOR = 2.0**-54

# Replicates that share one stream.
GROUP_ROWS = 256


def stream_id_for(domain: int, sub: int, index: int) -> int:
    """Compose a stream id from its (domain, sub, index) coordinates."""
    if not 0 <= domain < 2**16:
        raise OutOfRange(f"stream domain {domain} outside [0, 2^16)")
    if not 0 <= sub < 2**16:
        raise OutOfRange(f"stream sub-id {sub} outside [0, 2^16)")
    if not 0 <= index < 2**32:
        raise OutOfRange(f"stream index {index} outside [0, 2^32)")
    return domain << 48 | sub << 32 | index


@dataclass(frozen=True)
class RandomStream:
    """One addressable random stream under a master seed."""

    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise OutOfRange(f"master_seed {self.master_seed} outside [0, 2^64)")
        if not 0 <= self.stream_id < 2**64:
            raise OutOfRange(f"stream_id {self.stream_id} outside [0, 2^64)")

    def generator(self) -> np.random.Generator:
        """A fresh Generator(PCG64(SeedSequence((master_seed, stream_id))))."""
        seq = np.random.SeedSequence((self.master_seed, self.stream_id))
        return np.random.Generator(np.random.PCG64(seq))


def _spans(
    master_seed: int, domain: int, sub: int, start: int, count: int
) -> list[tuple[RandomStream, int, int]]:
    """(stream, first, rows) for each group that rows start..start+count-1 of
    (domain, sub) touch, in order: the group's stream, the position in the
    group of the first of those rows, and how many of them it holds.  Raises
    OutOfRange if a row's coordinates do not fit."""
    if count < 0:
        raise OutOfRange(f"count {count} must be >= 0")
    RandomStream(master_seed, stream_id_for(domain, sub, start))
    stream_id_for(domain, sub, start + max(count, 1) - 1)  # the last row's index fits
    spans, j, end = [], start, start + count
    while j < end:
        group, first = divmod(j, GROUP_ROWS)
        rows = min(GROUP_ROWS - first, end - j)
        stream = RandomStream(master_seed, stream_id_for(domain, sub, group))
        spans.append((stream, first, rows))
        j += rows
    return spans


def uniform_rows(
    master_seed: int,
    domain: int,
    sub: int,
    start: int,
    count: int,
    width: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(count, width) uniforms in [0, 1) of rows start..start+count-1 of
    (domain, sub) under master_seed: row j is draws [(j % GROUP_ROWS) * width,
    (j % GROUP_ROWS + 1) * width) of stream (domain, sub, j // GROUP_ROWS).
    `out`, a C-contiguous float64 (count, width) array, receives the draws;
    by default a new one does.  Raises OutOfRange, before anything is drawn,
    if a row's coordinates or `out` do not fit."""
    if width < 0:
        raise OutOfRange(f"width {width} must be >= 0")
    spans = _spans(master_seed, domain, sub, start, count)
    if out is None:
        out = np.empty((count, width))
    elif out.shape != (count, width):
        raise OutOfRange(f"out has shape {out.shape}, need {(count, width)}")
    elif out.dtype != np.float64 or not out.flags.c_contiguous:
        raise OutOfRange(f"out must be C-contiguous float64, got {out.dtype}")
    flat, done = out.reshape(-1), 0
    for stream, first, rows in spans:
        generator = stream.generator()
        generator.bit_generator.advance(first * width)
        generator.random(out=flat[done * width : (done + rows) * width])
        done += rows
    return out


def row_generators(
    master_seed: int,
    domain: int,
    sub: int,
    start: int,
    count: int,
    draw: Callable[[np.random.Generator], object],
) -> Iterator[np.random.Generator]:
    """The generator of each of rows start..start+count-1 of (domain, sub),
    in order: its group's, past the group's earlier rows, each of which
    takes the draws that draw(generator) takes.  The caller draws each row
    before it asks for the next; a group's rows before `start` are drawn
    here by `draw` and discarded.  Raises OutOfRange, before anything is
    drawn, if a row's coordinates do not fit."""
    spans = _spans(master_seed, domain, sub, start, count)

    def each_row() -> Iterator[np.random.Generator]:
        for stream, first, rows in spans:
            generator = stream.generator()
            for _ in range(first):
                draw(generator)
            for _ in range(rows):
                yield generator

    return each_row()


def normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Standard normals by CDF inversion of uniforms in [0, 1)."""
    return ndtri(np.fmax(u, U_FLOOR))


def exponentials_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Exp(1) draws by inversion; -log1p(-u) is exact at u = 0."""
    return -np.log1p(-u)
