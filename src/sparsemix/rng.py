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
bit, and the package builds no SeedSequence to draw from it.  The seed pair
is at most four 32-bit entropy words (the words of master_seed, then those of
stream_id), so of the SeedSequence hash (NumPy NEP 19) only the pool fill and
the cross-mix run; both are applied to a chunk of adjacent stream ids at once
in uint32 arithmetic.  Eight state words drawn from the pool give four
64-bit words w, and PCG64's seeding (O'Neill, PCG, 2014) sets

    inc   = (w2 << 64 | w3) << 1 | 1                          (mod 2^128)
    state = (inc + (w0 << 64 | w1)) * PCG_MULT + inc          (mod 2^128)

in uint64 (hi, lo) limbs, the high half of each 64x64-bit product formed
from 32-bit halves.  `uniform_rows` then draws a row in one of two ways,
chosen by its width:

* At most VECTOR_WIDTH draws: every row at once.  Each column steps all the
  rows' states (state * PCG_MULT + inc), applies PCG64's XSL-RR output and
  takes (x >> 11) * 2^-53, which is what Generator.random() computes.  Per
  column this costs a few dozen numpy calls over the rows.
* Wider rows: one reused PCG64, seated at each row's stream through
  `RandomStream.generator()` and its public `state` dict, which costs
  a few microseconds a row and then draws at numpy's own speed.

VECTOR_WIDTH is where the two cost the same on the blocks the simulation
tasks draw.  Either way the states come from `_chunk_limbs`, which derives
them POSITION_CHUNK aligned streams at a time and caches the chunks it
derived last; a task draws its rows in stream order, block by block, so each
state is derived once per task.  The reused PCG64 is built on the first
seat, so importing the package, or drawing narrow rows alone, does not load
numpy.random.  tests/test_rng.py holds numpy's own SeedSequence as the
oracle.

The cal2 limit law draws other than uniforms from its streams: row j is the
stream's first Generator.random() and then grid + 1
Generator.standard_normal() draws (numpy's ziggurat).  It seats its rows
through `_seated_rows`, the loop that `uniform_rows` seats wide rows with.
NEP 19 freezes the bit streams of numpy's bit generators but not the
Generator methods that transform them.  random() is reproduced above from
the raw PCG64 output, but a numpy release may change the ziggurat, so the
cal2 draws are tied to the numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4
# PCG_MULT as uint64 limbs, and the 32-bit halves of its low limb.
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO_HALVES = (np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32))
_LOW32 = np.uint64(_MASK32)

# Aligned streams whose states are derived at once; bounds the limbs' memory.
POSITION_CHUNK = 4096
# Widest row drawn for all rows at once; wider rows seat the generator.  The
# two cost the same on the null's 1024-row blocks of width 128.
VECTOR_WIDTH = 128


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
        """The module's one reused generator, seated in the state of numpy's
        Generator(PCG64(SeedSequence((master_seed, stream_id)))).  Only the
        Python ints of this stream's state are built."""
        chunk, k = divmod(self.stream_id, POSITION_CHUNK)
        hi, lo, inc_hi, inc_lo = _chunk_limbs(self.master_seed, chunk)[:, k].tolist()
        gen, full = _reused_generator()
        pcg = full["state"]
        pcg["state"], pcg["inc"] = hi << 64 | lo, inc_hi << 64 | inc_lo
        gen.bit_generator.state = full
        return gen


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


def _mulhi_mult(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * (PCG_MULT mod 2^64), formed
    from 32-bit halves so that no partial product overflows."""
    b0, b1 = _MULT_LO_HALVES
    a0, a1 = a & _LOW32, a >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = a0 * b1 + (t & _LOW32)
    return a1 * b1 + (t >> 32) + (w >> 32)


def _pcg64_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) limbs of state * PCG_MULT + inc (mod 2^128), elementwise."""
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = _mulhi_mult(lo) + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg64_states(master_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """(4, ids) uint64 limbs (state hi, state lo, inc hi, inc lo) of
    PCG64(SeedSequence((master_seed, id))) for each uint64 id."""
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
    w0, w1, w2, w3 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    seed_lo = inc_lo + w1
    seed_hi = inc_hi + w0 + (seed_lo < w1)
    return np.stack([*_pcg64_step(seed_hi, seed_lo, inc_hi, inc_lo), inc_hi, inc_lo])


def _pcg64_random(limbs: np.ndarray, out: np.ndarray) -> None:
    """out[i] = the first out.shape[1] Generator.random() draws of the PCG64
    in state limbs[:, i], drawn for every row at once, one column at a time."""
    hi, lo, inc_hi, inc_lo = limbs
    for col in out.T:
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: the xor of the halves, rotated right by the state's top 6 bits
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << (64 - rot & 63)
        np.multiply(x >> 11, 2.0**-53, out=col)


@lru_cache(maxsize=2)
def _chunk_limbs(master_seed: int, chunk: int) -> np.ndarray:
    """Read-only (4, POSITION_CHUNK) limbs of streams chunk * POSITION_CHUNK
    onward.  Rows are drawn in stream order, so a task derives each chunk
    once."""
    ids = np.uint64(chunk * POSITION_CHUNK) + np.arange(POSITION_CHUNK, dtype=np.uint64)
    limbs = _pcg64_states(master_seed, ids)
    limbs.flags.writeable = False
    return limbs


@lru_cache(maxsize=1)
def _reused_generator() -> tuple[np.random.Generator, dict]:
    """The one PCG64 generator that every seated row reuses, and the state
    dict it is seated through; built on the first seat, since numpy loads
    numpy.random lazily."""
    gen = np.random.Generator(np.random.PCG64(0))
    return gen, gen.bit_generator.state


def _vector_rows(master_seed: int, first: int, out: np.ndarray) -> None:
    """out[j] = the first out.shape[1] draws of stream first + j, drawn for
    every row at once without seating the generator."""
    done = 0
    while done < len(out):
        chunk, k = divmod(first + done, POSITION_CHUNK)
        limbs = _chunk_limbs(master_seed, chunk)[:, k : k + len(out) - done]
        _pcg64_random(limbs, out[done : done + limbs.shape[1]])
        done += limbs.shape[1]


def _checked_rows(
    master_seed: int,
    domain: int,
    sub: int,
    start: int,
    count: int,
    width: int,
    out: np.ndarray | None,
) -> tuple[int, np.ndarray]:
    """The first row's stream id and the buffer for rows start..start+count-1
    of (domain, sub), `width` wide (a new one if out is None).  Raises
    OutOfRange, before anything is drawn, if a row's coordinates or `out`
    do not fit."""
    if count < 0 or width < 0:
        raise OutOfRange(f"count {count} and width {width} must be >= 0")
    first = RandomStream(master_seed, stream_id_for(domain, sub, start)).stream_id
    stream_id_for(domain, sub, start + max(count, 1) - 1)  # the last row's index fits
    if out is None:
        out = np.empty((count, width))
    elif out.shape != (count, width):
        raise OutOfRange(f"out has shape {out.shape}, need {(count, width)}")
    elif out.dtype != np.float64 or not out.flags.c_contiguous:
        raise OutOfRange(f"out must be C-contiguous float64, got {out.dtype}")
    return first, out


def _seated_rows(master_seed: int, domain: int, sub: int, start: int, out: np.ndarray):
    """(generator, out[j]) for each row j of `out`, in order: the reused
    generator, seated at stream (domain, sub, start + j) through
    `RandomStream.generator`.  The rows and `out` are checked as by
    `uniform_rows` before the first is seated."""
    first, out = _checked_rows(master_seed, domain, sub, start, *out.shape, out)
    for stream_id, row in zip(range(first, first + len(out)), out):
        yield RandomStream(master_seed, stream_id).generator(), row


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
    """(count, width) uniforms in [0, 1): row j is the first `width` draws of
    stream (domain, sub, start + j) under master_seed.  `out`, a C-contiguous
    float64 (count, width) array, receives the draws; by default a new one
    does."""
    first, out = _checked_rows(master_seed, domain, sub, start, count, width, out)
    if width <= VECTOR_WIDTH:
        _vector_rows(master_seed, first, out)
    else:
        for generator, row in _seated_rows(master_seed, domain, sub, start, out):
            generator.random(out=row)
    return out


def normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Standard normals by CDF inversion of uniforms in [0, 1)."""
    return ndtri(np.fmax(u, U_FLOOR))


def exponentials_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Exp(1) draws by inversion; -log1p(-u) is exact at u = 0."""
    return -np.log1p(-u)
