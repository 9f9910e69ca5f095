"""Reproducible random streams.

Every Monte Carlo draw in the package comes from a (master_seed, stream_id)
pair, so replicate j is a pure function of the seed pair and its coordinates
regardless of batching, thread count, or evaluation order.  Distinct stream
ids give statistically independent PCG64 streams.

Stream ids partition the id space by purpose:

    stream_id = domain << 48 | sub << 32 | index

where `domain` separates null simulation, power simulation (its uniforms and
its shifted normals), and the two ALR limit-law samplers, and `sub`
separates e.g. grid points within a power study or the two draws of a
limit-law row.  A stream is numpy's Generator(PCG64(SeedSequence(
(master_seed, stream_id)))), which `RandomStream.generator()` builds afresh.

Replicates share streams in groups of GROUP_ROWS, as substreams of one
stream (L'Ecuyer, Munger, Oreshkin & Simard, Math. Comput. Simul. 135,
2017): row j of (domain, sub), `width` draws wide, is draws
[(j % GROUP_ROWS) * width, (j % GROUP_ROWS + 1) * width) of stream
(domain, sub, j // GROUP_ROWS), either Generator.random() uniforms in [0, 1)
or Generator.standard_normal() normals (numpy's ziggurat; Marsaglia & Tsang,
J. Stat. Softw. 5(8), 2000).  A task reads its rows through one `Rows`
reader per family of draws, which seats each group's generator once and
keeps it across the task's blocks.  Seating costs ~10 us, which GROUP_ROWS
rows share.  numpy.random is loaded on the first seat, not when the package
is imported.

Row layouts, m = n // 2 (engine._lower_rows turns the first two into
sorted lower halves of p-values):

* Null (DOMAIN_NULL, sub 0): m uniforms, the spacings of the m smallest of
  n uniform p-values.
* Alternative at grid point k, eps > 0: 1 + m uniforms of (DOMAIN_POWER,
  k), draw 0 giving the shift count K by inverting the Bin(n, eps) CDF and
  draws 1..m the spacings of the n - K unshifted p-values; and W normals of
  (DOMAIN_SHIFT, k), W the most shifts a row can have, of which the first K
  are the shifted coordinates less their mean.  At eps = 0 a row is the
  null's m spacings, on (DOMAIN_POWER, k).
* cal1: one uniform of (DOMAIN_CAL1, 0) for E, one normal of (DOMAIN_CAL1,
  1) for Z.
* cal2: one uniform of (DOMAIN_CAL2, 0) for E, grid + 1 normals of
  (DOMAIN_CAL2, 1) for the bridge.

NEP 19 freezes the bit streams of numpy's bit generators and SeedSequence,
but not the Generator methods that transform them, so every row is tied to
the numpy version.  tests/test_rng.py holds numpy's own SeedSequence as the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange

DOMAIN_NULL = 0
DOMAIN_POWER = 1
DOMAIN_CAL1 = 2
DOMAIN_CAL2 = 3
DOMAIN_SHIFT = 4

# Uniforms from Generator.random() live in [0, 1); guard the left edge so
# that Exp(1) draws -log1p(-u) stay positive.
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


class Rows:
    """Reader of rows start..start+count-1 of (domain, sub) under
    master_seed, `width` draws a row: uniforms, or standard normals if
    `normal`.  Each `read` fills the next rows, so a task builds one reader
    per family of draws and reads its blocks in order.  Each group's
    generator is seated once per reader and kept until the reader moves on
    to the next group.  At the task's first row, mid-group, a uniform reader
    advances past the group's earlier rows (PCG64's advance costs O(log
    distance); O'Neill, PCG, 2014); a normal reader, whose draws take a
    varying number of bits, draws them and discards them into `out`.
    Raises OutOfRange if a row's coordinates do not fit."""

    def __init__(
        self,
        master_seed: int,
        domain: int,
        sub: int,
        start: int,
        count: int,
        width: int,
        normal: bool = False,
    ) -> None:
        if count < 0:
            raise OutOfRange(f"count {count} must be >= 0")
        if width < 0:
            raise OutOfRange(f"width {width} must be >= 0")
        RandomStream(master_seed, stream_id_for(domain, sub, start))
        stream_id_for(domain, sub, start + max(count, 1) - 1)  # the last row's index fits
        self.master_seed, self.domain, self.sub = master_seed, domain, sub
        self.width, self.normal = width, normal
        self._next, self._end = start, start + count
        self._group, self._draw = -1, None

    def read(self, out: np.ndarray) -> np.ndarray:
        """Fill `out`, a C-contiguous float64 (rows, width) array, with the
        reader's next `rows` rows and return it.  Raises OutOfRange, before
        anything is drawn, if `out` does not fit or holds more rows than
        are left."""
        if out.ndim != 2 or out.shape[1] != self.width:
            raise OutOfRange(f"out has shape {out.shape}, need (rows, {self.width})")
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise OutOfRange(f"out must be C-contiguous float64, got {out.dtype}")
        rows, width = out.shape
        if rows > self._end - self._next:
            raise OutOfRange(f"{rows} rows asked for, {self._end - self._next} left")
        flat, done = out.reshape(-1), 0
        while done < rows:
            group, first = divmod(self._next, GROUP_ROWS)
            if group != self._group:
                self._group, self._draw = group, self._seat(group, first, flat)
            take = min(GROUP_ROWS - first, rows - done)
            self._draw(out=flat[done * width : (done + take) * width])
            done += take
            self._next += take
        return out

    def _seat(self, group: int, first: int, flat: np.ndarray):
        """The draw method of `group`'s generator, past the group's first
        `first` rows; a normal reader discards them through `flat`."""
        stream = RandomStream(self.master_seed, stream_id_for(self.domain, self.sub, group))
        generator = stream.generator()
        if not self.normal:
            generator.bit_generator.advance(first * self.width)
            return generator.random
        left = first * self.width
        while left:
            k = min(left, flat.size)
            generator.standard_normal(out=flat[:k])
            left -= k
        return generator.standard_normal


def exponentials_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Exp(1) draws by inversion; -log1p(-u) is exact at u = 0."""
    return -np.log1p(-u)
