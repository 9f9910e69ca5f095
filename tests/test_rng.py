"""Stream addressing, determinism, and inversion helpers."""

import math
import subprocess
import sys
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
    GROUP_ROWS,
    RandomStream,
    U_FLOOR,
    exponentials_from_uniforms,
    normals_from_uniforms,
    uniform_rows,
)

DOMAINS = (DOMAIN_NULL, DOMAIN_POWER, DOMAIN_CAL1, DOMAIN_CAL2)


def _numpy_stream(seed: int, stream_id: int, width: int) -> np.ndarray:
    """The oracle: numpy's own SeedSequence -> PCG64 -> Generator."""
    seq = np.random.SeedSequence((seed, stream_id))
    return np.random.Generator(np.random.PCG64(seq)).random(width)


def _numpy_row(seed: int, domain: int, sub: int, j: int, width: int) -> np.ndarray:
    """Row j of (domain, sub), `width` wide: draws [k * width, (k + 1) * width)
    of the oracle stream (domain, sub, j // GROUP_ROWS), k = j % GROUP_ROWS."""
    group, k = divmod(j, GROUP_ROWS)
    return _numpy_stream(seed, stream_id_for(domain, sub, group), (k + 1) * width)[k * width :]


def _assert_rows_match_numpy(seed, domain, sub, start, rows):
    for j, row in enumerate(rows):
        expected = _numpy_row(seed, domain, sub, start + j, row.size)
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
    for width in (1, 2, 7, 4098):
        # the first rows; the last row of the first group and the first of the
        # next; the last row of all, at the end of its group
        for start, count in ((0, 2), (GROUP_ROWS - 1, 2), (2**32 - 1, 1)):
            rows = uniform_rows(seed, domain, sub, start, count, width)
            assert rows.shape == (count, width)
            _assert_rows_match_numpy(seed, domain, sub, start, rows)


def test_uniform_rows_across_groups():
    for start, count in ((11, GROUP_ROWS + 1), (0, 2 * GROUP_ROWS), (3, 2 * GROUP_ROWS + 3)):
        rows = uniform_rows(2**32, DOMAIN_POWER, 7, start, count, 2)
        assert rows.shape == (count, 2)
        _assert_rows_match_numpy(2**32, DOMAIN_POWER, 7, start, rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    domain=st.integers(0, 2**16 - 1),
    sub=st.integers(0, 2**16 - 1),
    start=st.integers(0, 2**32 - 2 * GROUP_ROWS),
    count=st.integers(1, 2 * GROUP_ROWS),
    width=st.integers(1, 40),
)
def test_uniform_rows_property(seed, domain, sub, start, count, width):
    rows = uniform_rows(seed, domain, sub, start, count, width)
    _assert_rows_match_numpy(seed, domain, sub, start, rows)


def _recorded_seats(monkeypatch) -> list:
    """The streams that RandomStream.generator() is called on, from now on."""
    seated = []
    generator = RandomStream.generator

    def counted(self):
        seated.append(self)
        return generator(self)

    monkeypatch.setattr(RandomStream, "generator", counted)
    return seated


def test_uniform_rows_seat_each_group_once(monkeypatch):
    seated = _recorded_seats(monkeypatch)
    uniform_rows(3, DOMAIN_CAL1, 2, GROUP_ROWS - 6, GROUP_ROWS + 9, 3)  # groups 0, 1, 2
    assert seated == [RandomStream(3, stream_id_for(DOMAIN_CAL1, 2, g)) for g in range(3)]


def test_seated_generator_equals_numpy_seedsequence_in_any_order():
    for seed, sid in (
        (7, 100), (7, 99), (8, 100), (7, 2**32), (7, 101),
        (0, 0), (2**64 - 1, 2**64 - 1), (5, stream_id_for(3, 2, 9)),
    ):
        expected = _numpy_stream(seed, sid, 300)
        generator = RandomStream(seed, sid).generator()
        assert np.array_equal(generator.random(300), expected), (seed, sid)
    # each call builds a fresh generator at the stream's start
    stream = RandomStream(7, 100)
    first = stream.generator()
    first.random(5)
    assert np.array_equal(stream.generator().random(300), _numpy_stream(7, 100, 300))


def test_group_edge_starts_equal_numpy_in_and_out_of_order():
    edge = 3 * GROUP_ROWS
    in_order = list(range(edge - 3, edge + 3))
    # back and forth over the edge, into the next group and back to the first
    out_of_order = [edge + 2, edge - 1, edge + GROUP_ROWS, edge - 3, edge, edge - 2,
                    edge + 1, edge + GROUP_ROWS - 1, 0, edge - 1]
    for j in in_order + out_of_order:
        rows = uniform_rows(11, DOMAIN_NULL, 0, j, 1, 5)
        _assert_rows_match_numpy(11, DOMAIN_NULL, 0, j, rows)
    for first in (edge - 3, edge - 1, edge, edge + 1, edge - GROUP_ROWS):
        rows = uniform_rows(11, DOMAIN_NULL, 0, first, 6, 5)
        _assert_rows_match_numpy(11, DOMAIN_NULL, 0, first, rows)


def _draw_varying(generator):
    """A row of a varying number of draws: one uniform picks 1 to 4 more."""
    return [generator.random(1 + int(4 * generator.random()))]


def test_row_generators_start_mid_group_as_if_from_its_start():
    # rows 250..520 of groups 0, 1 and 2, each drawn as _draw_varying draws
    # it, equal the same rows drawn from the start of group 0
    def drawn(start, count):
        gens = rng.row_generators(13, DOMAIN_CAL2, 1, start, count, _draw_varying)
        return [_draw_varying(g)[0] for g in gens]

    whole = drawn(0, 521)
    for start, count in ((250, 271), (255, 2), (256, 1), (257, 264), (3, 1)):
        part = drawn(start, count)
        assert len(part) == count
        for a, b in zip(part, whole[start : start + count]):
            assert np.array_equal(a, b), start
    # and row j is drawn from its group's own numpy stream
    g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (13, stream_id_for(DOMAIN_CAL2, 1, 2)))))
    assert np.array_equal(_draw_varying(g)[0], whole[2 * GROUP_ROWS])


def test_row_generators_seat_each_group_once_and_check_first(monkeypatch):
    seated = _recorded_seats(monkeypatch)
    gens = rng.row_generators(13, DOMAIN_CAL2, 1, 250, 271, _draw_varying)
    assert seated == []  # nothing is seated before the first row is asked for
    for generator in gens:
        _draw_varying(generator)
    assert seated == [RandomStream(13, stream_id_for(DOMAIN_CAL2, 1, g)) for g in range(3)]
    with pytest.raises(OutOfRange):
        rng.row_generators(13, DOMAIN_CAL2, 1, 2**32 - 1, 2, _draw_varying)


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
    # a buffer that one flat draw could not fill exactly is refused
    for bad in (np.empty((3, 7), np.float32), np.empty((3, 7), order="F")):
        with pytest.raises(OutOfRange):
            uniform_rows(1729, DOMAIN_CAL2, 4, 10, 3, 7, out=bad)


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
    seated = _recorded_seats(monkeypatch)
    with pytest.raises(OutOfRange):
        uniform_rows(*args)
    assert not seated


def test_the_main_process_does_not_load_numpy_random(tmp_path):
    # a fresh interpreter: importing the CLI leaves numpy.random unloaded
    # (numpy loads it lazily), and commands whose draws all run in pool
    # workers leave it unloaded in the main process
    script = f"""
import sys
sys.path.insert(0, {str(Path(rng.__file__).parents[1])!r})
from sparsemix.cli import main
assert "numpy.random" not in sys.modules, "importing the CLI loaded numpy.random"
for argv in (
    ["size-table", "--n", "100,1000", "--stat", "hc,bj", "--method", "thresh,evi",
     "--alpha", "0.05", "--reps", "2000", "--out", {str(tmp_path / "sizes.csv")!r}],
    ["alr-limit", "--variant", "cal1", "--reps", "20000", "--alpha", "0.05",
     "--out", {str(tmp_path / "cal1.json")!r}],
    ["alr-limit", "--variant", "cal2", "--reps", "10000", "--grid", "256",
     "--n-for-l", "1000", "--alpha", "0.05", "--out", {str(tmp_path / "cal2.json")!r}],
):
    assert main(argv + ["--threads", "2", "--seed", "5"]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
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
