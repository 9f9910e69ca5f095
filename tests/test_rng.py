"""Stream addressing, determinism, the row reader, and inversion helpers."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsemix import OutOfRange, stream_id_for
from sparsemix import rng
from sparsemix.rng import (
    DOMAIN_CAL1,
    DOMAIN_CAL2,
    DOMAIN_NULL,
    DOMAIN_POWER,
    DOMAIN_SHIFT,
    GROUP_ROWS,
    RandomStream,
    Rows,
    exponentials_from_uniforms,
)

DOMAINS = (DOMAIN_NULL, DOMAIN_POWER, DOMAIN_CAL1, DOMAIN_CAL2, DOMAIN_SHIFT)


def _numpy_stream(seed: int, stream_id: int, width: int, normal: bool = False) -> np.ndarray:
    """The oracle: `width` uniforms (or standard normals) of numpy's own
    SeedSequence -> PCG64 -> Generator."""
    seq = np.random.SeedSequence((seed, stream_id))
    generator = np.random.Generator(np.random.PCG64(seq))
    return generator.standard_normal(width) if normal else generator.random(width)


def _numpy_row(seed, domain, sub, j, width, normal=False) -> np.ndarray:
    """Row j of (domain, sub), `width` wide: draws [k * width, (k + 1) * width)
    of the oracle stream (domain, sub, j // GROUP_ROWS), k = j % GROUP_ROWS."""
    group, k = divmod(j, GROUP_ROWS)
    stream = _numpy_stream(seed, stream_id_for(domain, sub, group), (k + 1) * width, normal)
    return stream[k * width :]


def _assert_rows_match_numpy(seed, domain, sub, start, rows, normal=False):
    for j, row in enumerate(rows):
        expected = _numpy_row(seed, domain, sub, start + j, row.size, normal)
        assert np.array_equal(row, expected), (seed, domain, sub, start + j)


def _read(seed, domain, sub, start, count, width, normal=False, blocks=None):
    """Rows start..start+count-1 through one reader, in reads of `blocks`
    rows each (one read of all by default)."""
    reader = Rows(seed, domain, sub, start, count, width, normal)
    out = np.empty((count, width))
    lo = 0
    for c in blocks or [count]:
        reader.read(out[lo : lo + c])
        lo += c
    assert lo == count
    return out


def test_domains_are_distinct():
    assert len(set(DOMAINS)) == 5


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
    a = _read(123, 0, 0, 5, 1, 100)
    b = _read(123, 0, 0, 5, 1, 100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    base = _read(123, 0, 0, 5, 1, 100)
    for seed, domain, sub, index in [
        (124, 0, 0, 5),
        (123, 0, 0, 6),
        (123, 0, 1, 5),
        (123, 1, 0, 5),
    ]:
        assert not np.array_equal(base, _read(seed, domain, sub, index, 1, 100))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("sub", [0, 2**16 - 1])
def test_uniform_rows_equal_numpy_seedsequence_streams(seed, domain, sub):
    for width in (1, 2, 7, 4098):
        # the first rows; the last row of the first group and the first of the
        # next; the last row of all, at the end of its group
        for start, count in ((0, 2), (GROUP_ROWS - 1, 2), (2**32 - 1, 1)):
            rows = _read(seed, domain, sub, start, count, width)
            _assert_rows_match_numpy(seed, domain, sub, start, rows)


def test_uniform_rows_across_groups():
    for start, count in ((11, GROUP_ROWS + 1), (0, 2 * GROUP_ROWS), (3, 2 * GROUP_ROWS + 3)):
        blocks = [count // 3, count - count // 3]
        rows = _read(2**32, DOMAIN_POWER, 7, start, count, 2, blocks=blocks)
        _assert_rows_match_numpy(2**32, DOMAIN_POWER, 7, start, rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    domain=st.integers(0, 2**16 - 1),
    sub=st.integers(0, 2**16 - 1),
    start=st.integers(0, 2**32 - 2 * GROUP_ROWS),
    count=st.integers(1, 2 * GROUP_ROWS),
    width=st.integers(1, 40),
    cut=st.integers(0, 2 * GROUP_ROWS),
)
def test_uniform_rows_property(seed, domain, sub, start, count, width, cut):
    # one reader, in two reads of uneven size
    cut = min(cut, count)
    rows = _read(seed, domain, sub, start, count, width, blocks=[cut, count - cut])
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
    # rows 250..514 touch groups 0, 1 and 2; reads of 7 rows cross group
    # edges, and each group is seated once for all of them
    seated = _recorded_seats(monkeypatch)
    reader = Rows(3, DOMAIN_CAL1, 2, GROUP_ROWS - 6, GROUP_ROWS + 9, 3)
    assert seated == []  # nothing is seated before the first read
    out = np.empty((7, 3))
    for lo in range(0, GROUP_ROWS + 9, 7):
        reader.read(out[: min(7, GROUP_ROWS + 9 - lo)])
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
        rows = _read(11, DOMAIN_NULL, 0, j, 1, 5)
        _assert_rows_match_numpy(11, DOMAIN_NULL, 0, j, rows)
    for first in (edge - 3, edge - 1, edge, edge + 1, edge - GROUP_ROWS):
        rows = _read(11, DOMAIN_NULL, 0, first, 6, 5)
        _assert_rows_match_numpy(11, DOMAIN_NULL, 0, first, rows)


@pytest.mark.parametrize("width", [1, 5, 257])
def test_normal_rows_equal_numpy_streams(width):
    # a group's start, a mid-group start and the 255/256 edge, each read by
    # one reader in blocks of uneven size
    for start, blocks in (
        (0, [3, 1, 7]),
        (2 * GROUP_ROWS, [1, 2]),
        (100, [5, 1, 4]),
        (GROUP_ROWS - 6, [2, 7, 1, 3]),
        (GROUP_ROWS - 1, [1, 1]),
    ):
        rows = _read(13, DOMAIN_SHIFT, 9, start, sum(blocks), width, True, blocks)
        _assert_rows_match_numpy(13, DOMAIN_SHIFT, 9, start, rows, normal=True)


def test_normal_rows_seat_each_group_once_and_check_first(monkeypatch):
    seated = _recorded_seats(monkeypatch)
    rows = _read(13, DOMAIN_CAL2, 1, 250, 271, 4, True, [1, 9, 100, 161])
    assert seated == [RandomStream(13, stream_id_for(DOMAIN_CAL2, 1, g)) for g in range(3)]
    assert np.array_equal(rows, _read(13, DOMAIN_CAL2, 1, 0, 521, 4, True)[250:])
    with pytest.raises(OutOfRange):
        Rows(13, DOMAIN_CAL2, 1, 2**32 - 1, 2, 4, normal=True)


def test_uniform_rows_split_invariance():
    whole = _read(1729, DOMAIN_CAL2, 4, 10, 100, 7)
    splits = ((10, 37), (47, 1), (48, 62))
    parts = [_read(1729, DOMAIN_CAL2, 4, s, c, 7) for s, c in splits]
    assert np.array_equal(whole, np.vstack(parts))
    assert np.array_equal(whole, _read(1729, DOMAIN_CAL2, 4, 10, 100, 7, blocks=[37, 1, 0, 62]))
    assert _read(1729, DOMAIN_CAL2, 4, 10, 0, 7).shape == (0, 7)


def test_uniform_rows_fill_a_given_buffer():
    buf = np.full((5, 7), np.nan)
    got = Rows(1729, DOMAIN_CAL2, 4, 10, 3, 7).read(buf[:3])
    assert got.base is buf
    assert np.array_equal(got, _read(1729, DOMAIN_CAL2, 4, 10, 3, 7))
    assert np.isnan(buf[3:]).all()


@pytest.mark.parametrize("normal", [False, True], ids=["uniform", "normal"])
def test_a_bad_read_raises_before_any_draw(monkeypatch, normal):
    # a wrong width, dtype or layout, or more rows than are left, is refused
    # before anything is seated or drawn, and leaves the reader where it was
    expected = _read(1729, DOMAIN_CAL2, 4, 10, 3, 7, normal)
    seated = _recorded_seats(monkeypatch)
    reader = Rows(1729, DOMAIN_CAL2, 4, 10, 3, 7, normal)
    for bad in (np.empty((3, 6)), np.empty(21), np.empty((3, 7), np.float32),
                np.empty((3, 7), order="F"), np.empty((4, 7))):
        with pytest.raises(OutOfRange):
            reader.read(bad)
    assert seated == []
    assert np.array_equal(reader.read(np.empty((3, 7))), expected)
    with pytest.raises(OutOfRange):
        reader.read(np.empty((1, 7)))  # past count
    assert len(seated) == 1


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
    for normal in (False, True):
        with pytest.raises(OutOfRange):
            Rows(*args, normal)
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
    ["power-curve", "--n", "1000", "--beta-grid", "0.6,0.9", "--cal-reps", "2000",
     "--pow-reps", "400", "--out", {str(tmp_path / "power.csv")!r},
     "--svg", {str(tmp_path / "power.svg")!r}],
):
    assert main(argv + ["--threads", "2", "--seed", "5"]) == 0, argv
    assert "numpy.random" not in sys.modules, argv
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_exponential_inversion():
    u = np.array([0.0, 0.5, 1.0 - 1e-12])
    e = exponentials_from_uniforms(u)
    assert e[0] == 0.0
    assert e[1] == pytest.approx(math.log(2.0), rel=1e-15)
    assert np.all(np.isfinite(e)) and np.all(e >= 0.0)
    # inversion identity: 1 - exp(-e) == u
    np.testing.assert_allclose(-np.expm1(-e), u, rtol=0, atol=1e-15)
