"""Stream addressing, determinism, and inversion helpers."""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from sparsemix import OutOfRange, stream_id_for
from sparsemix import rng
from sparsemix.rng import (
    DOMAIN_CAL1,
    DOMAIN_CAL2,
    DOMAIN_NULL,
    DOMAIN_POWER,
    POSITION_CHUNK,
    RandomStream,
    U_FLOOR,
    VECTOR_WIDTH,
    exponentials_from_uniforms,
    normals_from_uniforms,
    uniform_rows,
)

DOMAINS = (DOMAIN_NULL, DOMAIN_POWER, DOMAIN_CAL1, DOMAIN_CAL2)


def _numpy_stream(seed: int, stream_id: int, width: int) -> np.ndarray:
    """The oracle: numpy's own SeedSequence -> PCG64 -> Generator."""
    seq = np.random.SeedSequence((seed, stream_id))
    return np.random.Generator(np.random.PCG64(seq)).random(width)


def _assert_rows_match_numpy(seed, domain, sub, start, rows):
    for j, row in enumerate(rows):
        expected = _numpy_stream(seed, stream_id_for(domain, sub, start + j), row.size)
        assert np.array_equal(row, expected), (seed, domain, sub, start + j)


def test_domains_are_distinct():
    assert len({DOMAIN_NULL, DOMAIN_POWER, DOMAIN_CAL1, DOMAIN_CAL2}) == 4


def test_stream_id_composition():
    assert stream_id_for(0, 0, 0) == 0
    assert stream_id_for(0, 0, 7) == 7
    assert stream_id_for(0, 3, 0) == 3 << 32
    assert stream_id_for(2, 0, 0) == 2 << 48
    assert stream_id_for(1, 2, 3) == (1 << 48) | (2 << 32) | 3
    # coordinates never collide: the packed id is injective
    seen = {
        stream_id_for(d, s, i)
        for d in (0, 1, 5)
        for s in (0, 1, 9)
        for i in (0, 1, 2**32 - 1)
    }
    assert len(seen) == 27


@pytest.mark.parametrize(
    "domain,sub,index",
    [(-1, 0, 0), (2**16, 0, 0), (0, -1, 0), (0, 2**16, 0), (0, 0, -1), (0, 0, 2**32)],
)
def test_stream_id_range_checks(domain, sub, index):
    with pytest.raises(OutOfRange):
        stream_id_for(domain, sub, index)


def test_random_stream_validation():
    RandomStream(0, 0)
    RandomStream(2**64 - 1, 2**64 - 1)
    with pytest.raises(OutOfRange):
        RandomStream(-1, 0)
    with pytest.raises(OutOfRange):
        RandomStream(0, 2**64)


def test_same_stream_reproduces_bitwise():
    a = uniform_rows(123, 0, 0, 5, 1, 100)
    b = uniform_rows(123, 0, 0, 5, 1, 100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    base = uniform_rows(123, 0, 0, 5, 1, 100)
    for seed, domain, sub, index in [
        (124, 0, 0, 5),
        (123, 0, 0, 6),
        (123, 0, 1, 5),
        (123, 1, 0, 5),
    ]:
        assert not np.array_equal(base, uniform_rows(seed, domain, sub, index, 1, 100))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("sub", [0, 2**16 - 1])
def test_uniform_rows_equal_numpy_seedsequence_streams(seed, domain, sub):
    # VECTOR_WIDTH and one more: the widest vectorised and narrowest seated rows
    for width in (1, 2, VECTOR_WIDTH, VECTOR_WIDTH + 1, 4098):
        for start, count in ((0, 2), (2**32 - 1, 1)):  # indices 0, 1 and 2^32 - 1
            rows = uniform_rows(seed, domain, sub, start, count, width)
            assert rows.shape == (count, width)
            _assert_rows_match_numpy(seed, domain, sub, start, rows)


def test_uniform_rows_past_one_position_chunk():
    for count in (POSITION_CHUNK + 1, 2 * POSITION_CHUNK + 3):
        rows = uniform_rows(2**32, DOMAIN_POWER, 7, 11, count, 2)
        assert rows.shape == (count, 2)
        _assert_rows_match_numpy(2**32, DOMAIN_POWER, 7, 11, rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    domain=st.integers(0, 2**16 - 1),
    sub=st.integers(0, 2**16 - 1),
    start=st.integers(0, 2**32 - 3),
    count=st.integers(1, 3),
    width=st.integers(1, 40),
)
def test_uniform_rows_property(seed, domain, sub, start, count, width):
    rows = uniform_rows(seed, domain, sub, start, count, width)
    _assert_rows_match_numpy(seed, domain, sub, start, rows)


def test_uniform_rows_seat_each_row_through_its_stream(monkeypatch):
    seated = []
    generator = RandomStream.generator

    def counted(self):
        seated.append(self)
        return generator(self)

    monkeypatch.setattr(RandomStream, "generator", counted)
    uniform_rows(3, DOMAIN_CAL1, 2, 8, 5, VECTOR_WIDTH + 1)  # a seated width
    assert seated == [RandomStream(3, stream_id_for(DOMAIN_CAL1, 2, 8 + j)) for j in range(5)]


def test_seated_generator_equals_numpy_seedsequence_in_any_order():
    for seed, sid in (
        (7, 100), (7, 99), (8, 100), (7, 100 + POSITION_CHUNK), (7, 101),
        (0, 0), (2**64 - 1, 2**64 - 1), (5, stream_id_for(3, 2, 9)),
    ):
        expected = _numpy_stream(seed, sid, 300)
        generator = RandomStream(seed, sid).generator()
        assert np.array_equal(generator.random(300), expected), (seed, sid)


def test_seats_across_a_chunk_edge_equal_numpy_in_and_out_of_order():
    rng._chunk_limbs.cache_clear()
    edge = 3 * POSITION_CHUNK
    in_order = list(range(edge - 3, edge + 3))
    # back and forth over the edge, and through a third chunk that evicts one
    out_of_order = [edge + 2, edge - 1, edge + POSITION_CHUNK, edge - 3, edge, edge - 2,
                    edge + 1, edge + POSITION_CHUNK - 1, 0, edge - 1]
    for sid in in_order + out_of_order:
        drawn = RandomStream(11, sid).generator().random(VECTOR_WIDTH + 1)
        assert np.array_equal(drawn, _numpy_stream(11, sid, VECTOR_WIDTH + 1)), sid
    for first in (edge - 3, edge - 1, edge):
        rows = uniform_rows(11, DOMAIN_NULL, 0, first, 6, 5)
        _assert_rows_match_numpy(11, DOMAIN_NULL, 0, first, rows)


def test_cached_chunk_limbs_are_read_only():
    limbs = rng._chunk_limbs(5, 1)
    assert limbs.shape == (4, POSITION_CHUNK) and limbs.dtype == np.uint64
    with pytest.raises(ValueError):
        limbs[0, 0] = 0
    assert rng._chunk_limbs(5, 1) is limbs


def test_seating_a_whole_chunk_builds_no_per_chunk_ints():
    # a whole chunk's (state, inc) as Python ints would take ~1.5 MiB
    streams = [RandomStream(5, j) for j in range(POSITION_CHUNK)]
    streams[0].generator()  # derives the chunk's limbs and builds the generator
    tracemalloc.start()
    try:
        for stream in streams:
            stream.generator()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_uniform_rows_split_invariance():
    whole = uniform_rows(1729, DOMAIN_CAL2, 4, 10, 100, 7)
    splits = ((10, 37), (47, 1), (48, 62))
    parts = [uniform_rows(1729, DOMAIN_CAL2, 4, s, c, 7) for s, c in splits]
    assert np.array_equal(whole, np.vstack(parts))
    assert uniform_rows(1729, DOMAIN_CAL2, 4, 10, 0, 7).shape == (0, 7)


def test_uniform_rows_fill_a_given_buffer():
    buf = np.full((5, 7), np.nan)
    got = uniform_rows(1729, DOMAIN_CAL2, 4, 10, 3, 7, out=buf[:3])
    assert got.base is buf
    assert np.array_equal(got, uniform_rows(1729, DOMAIN_CAL2, 4, 10, 3, 7))
    assert np.isnan(buf[3:]).all()
    with pytest.raises(OutOfRange):
        uniform_rows(1729, DOMAIN_CAL2, 4, 10, 3, 7, out=buf)
    # either way of drawing refuses a buffer it could not fill exactly
    for width in (7, VECTOR_WIDTH + 1):
        for bad in (np.empty((3, width), np.float32), np.empty((3, width), order="F")):
            with pytest.raises(OutOfRange):
                uniform_rows(1729, DOMAIN_CAL2, 4, 10, 3, width, out=bad)


@pytest.mark.parametrize(
    "args",
    [
        (0, DOMAIN_NULL, 0, 2**32 - 2, 3, 2),  # last row's index is 2^32
        (0, DOMAIN_NULL, 0, 2**32, 1, 2),
        (2**64, DOMAIN_NULL, 0, 0, 1, 2),
        (-1, DOMAIN_NULL, 0, 0, 1, 2),
        (0, 2**16, 0, 0, 1, 2),
        (0, DOMAIN_NULL, 2**16, 0, 1, 2),
        (0, DOMAIN_NULL, 0, 0, -1, 2),
        (0, DOMAIN_NULL, 0, 0, 1, -1),
    ],
)
def test_uniform_rows_range_checks_before_drawing(monkeypatch, args):
    derived = []
    rng._chunk_limbs.cache_clear()  # so that any draw derives its states
    monkeypatch.setattr(rng, "_pcg64_states", lambda *a: derived.append(a))
    with pytest.raises(OutOfRange):
        uniform_rows(*args)
    assert not derived


def test_narrow_draws_do_not_load_numpy_random():
    # a fresh interpreter: the CLI import and a null simulation of vectorised
    # rows leave numpy.random unloaded (numpy loads it lazily)
    script = f"""
import sys
sys.path.insert(0, {str(Path(rng.__file__).parents[1])!r})
import sparsemix.cli
from sparsemix.engine import null_statistics
null_statistics(100, 200, 5, threads=1)
assert "numpy.random" not in sys.modules, "numpy.random was loaded"
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_normal_inversion_handles_zero():
    z = normals_from_uniforms(np.array([0.0]))
    assert math.isfinite(z[0])
    assert z[0] == special.ndtri(U_FLOOR)
    assert z[0] < -8.0


def test_normal_inversion_round_trips():
    u = np.linspace(0.01, 0.99, 25)
    z = normals_from_uniforms(u)
    np.testing.assert_allclose(special.ndtr(z), u, rtol=1e-12)
    # median and symmetry
    assert normals_from_uniforms(np.array([0.5]))[0] == 0.0


def test_exponential_inversion():
    u = np.array([0.0, 0.5, 1.0 - 1e-12])
    e = exponentials_from_uniforms(u)
    assert e[0] == 0.0
    assert e[1] == pytest.approx(math.log(2.0), rel=1e-15)
    assert np.all(np.isfinite(e)) and np.all(e >= 0.0)
    # inversion identity: 1 - exp(-e) == u
    np.testing.assert_allclose(-np.expm1(-e), u, rtol=0, atol=1e-15)
