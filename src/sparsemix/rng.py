"""Reproducible random streams.

Every Monte Carlo draw in the package comes from a (master_seed, stream_id)
pair, so replicate j is a pure function of the seed pair regardless of
batching, thread count, or evaluation order.  Distinct stream ids give
statistically independent PCG64 streams.

Stream ids partition the id space by purpose:

    stream_id = domain << 48 | sub << 32 | index

where `domain` separates null simulation, power simulation, and the two
ALR limit-law samplers, `sub` separates e.g. grid points within a power
study, and `index` is the replicate number.

A stream is numpy's `PCG64(SeedSequence((master_seed, stream_id)))`, bit for
bit.  `uniform_rows`, the one way the package draws, seats one reused PCG64
at each row's stream through
`RandomStream.generator(seats)`, without building a SeedSequence.  The seed
pair is at most four 32-bit entropy words (the words of master_seed, then
those of stream_id), so of the SeedSequence hash (NumPy NEP 19) only the pool
fill and the cross-mix run; both are applied to a chunk of adjacent stream
ids at once in uint32 arithmetic.  Eight state words drawn from the pool give
four 64-bit words w, and PCG64's seeding (O'Neill, PCG, 2014) sets

    inc   = (w2 << 64 | w3) << 1 | 1                          (mod 2^128)
    state = (inc + (w0 << 64 | w1)) * PCG_MULT + inc          (mod 2^128)

which go into the reused generator through its public `state` dict before
each row is drawn.  A simulation task that draws its rows block by block
passes one `seats_for` generator to every block, so the states are derived
once per task.  tests/test_rng.py holds numpy's own SeedSequence as the
oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import OutOfRange

DOMAIN_NULL = 0
DOMAIN_POWER = 1
DOMAIN_CAL1 = 2
DOMAIN_CAL2 = 3

# Uniforms from Generator.random() live in [0, 1); guard the left edge before
# inverting so ndtri never sees an exact 0 (and Exp(1) draws stay positive).
U_FLOOR = 2.0**-54

# SeedSequence hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit multiplier.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4

# Rows positioned per batch of Python ints; bounds the lists' memory.
POSITION_CHUNK = 4096


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

    def generator(self, seats: _Seats) -> np.random.Generator:
        """The batch's one reused generator (from `uniform_rows`), seated in
        the state of numpy's Generator(PCG64(SeedSequence((master_seed,
        stream_id))))."""
        return seats.seat(self)


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) of each hashmix call: the hash constant before and
    after its update.  The constants never depend on the data."""
    steps, h = [], init
    for _ in range(count):
        nxt = h * mult & _MASK32
        steps.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return steps


# 4 pool-fill + 12 cross-mix hashes under INIT_A; 8 state words under INIT_B.
_MIX_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, step: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mul = step
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _pcg64_states(master_seed: int, stream_ids: np.ndarray) -> Iterator[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence((master_seed, id))) for each uint64 id."""
    # Entropy: master_seed's little-endian words (0 is one zero word), then
    # stream_id's low and high word.  An id below 2^32 has one word; its zero
    # high word is the pool's zero padding.
    entropy = np.zeros((_POOL, stream_ids.size), np.uint32)
    seed_words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words)] = stream_ids & _MASK32
    entropy[len(seed_words) + 1] = stream_ids >> 32
    steps = iter(_MIX_STEPS)
    pool = [_hashmix(entropy[i], next(steps)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                r = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], next(steps))
                pool[dst] = r ^ (r >> _XSHIFT)
    words = [
        _hashmix(pool[i % _POOL], step).astype(np.uint64)
        for i, step in enumerate(_STATE_STEPS)
    ]
    # The 128-bit seeding runs on object arrays: Python ints, one per row.
    w0, w1, w2, w3 = (
        (words[2 * k] | words[2 * k + 1] << 32).astype(object) for k in range(4)
    )
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    return zip(state.tolist(), inc.tolist())


class _Seats:
    """One reused PCG64 generator, seated in turn at streams below `stop`.

    The (state, inc) pairs are derived for up to POSITION_CHUNK adjacent
    streams at a time, when a stream outside the current chunk is seated.
    """

    def __init__(self, stop: int) -> None:
        self._bitgen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)
        self._full = self._bitgen.state
        self._stop = stop
        self._chunk = (-1, 0)  # (master_seed, first stream id) of _pairs
        self._pairs: list[tuple[int, int]] = []

    def seat(self, stream: RandomStream) -> np.random.Generator:
        seed, first = self._chunk
        k = stream.stream_id - first
        if seed != stream.master_seed or not 0 <= k < len(self._pairs):
            first, k = stream.stream_id, 0
            count = max(1, min(POSITION_CHUNK, self._stop - first))
            ids = np.uint64(first) + np.arange(count, dtype=np.uint64)
            self._chunk = (stream.master_seed, first)
            self._pairs = list(_pcg64_states(stream.master_seed, ids))
        pcg = self._full["state"]
        pcg["state"], pcg["inc"] = self._pairs[k]
        self._bitgen.state = self._full
        return self._gen


def seats_for(domain: int, sub: int, start: int, count: int) -> _Seats:
    """One reused generator for rows start..start+count-1 of (domain, sub).

    A task that draws those rows in several `uniform_rows` calls passes it to
    each, so the rows' stream states are derived once for the whole task.
    """
    return _Seats(stream_id_for(domain, sub, start) + count)


def uniform_rows(
    master_seed: int,
    domain: int,
    sub: int,
    start: int,
    count: int,
    width: int,
    *,
    seats: _Seats | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(count, width) uniforms in [0, 1): row j is the first `width` draws of
    stream (domain, sub, start + j) under master_seed.  `seats` (from
    `seats_for`, over a range holding these rows) is the generator to reuse;
    by default each call derives its own.  `out`, a C-contiguous float64
    (count, width) array, receives the draws; by default a new one does."""
    if count < 0 or width < 0:
        raise OutOfRange(f"count {count} and width {width} must be >= 0")
    first = RandomStream(master_seed, stream_id_for(domain, sub, start)).stream_id
    stream_id_for(domain, sub, start + max(count, 1) - 1)  # the last row's index fits
    if out is None:
        out = np.empty((count, width))
    elif out.shape != (count, width):
        raise OutOfRange(f"out has shape {out.shape}, need {(count, width)}")
    if seats is None:
        seats = _Seats(first + count)
    for stream_id, row in zip(range(first, first + count), out):
        RandomStream(master_seed, stream_id).generator(seats).random(out=row)
    return out


def normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Standard normals by CDF inversion of uniforms in [0, 1)."""
    return special.ndtri(np.fmax(u, U_FLOOR))


def exponentials_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Exp(1) draws by inversion; -log1p(-u) is exact at u = 0."""
    return -np.log1p(-u)
