"""The public API: every exported name resolves, and the removed scalar
duplicates of the batched kernels, with the one-sample samplers and their
stream object, and the wrappers around a null sample and a critical value
table, stay removed.  Every entry that takes a statistic kind or a
calibration method gives the same result, bitwise, for the enum member and
for its value in any case and padding; a bare one, where a sequence is
expected, is refused."""

import dataclasses
import enum

import numpy as np
import pytest

import sparsemix
from sparsemix import (
    CalibrationMethod,
    ConfigError,
    DomainError,
    OutOfRange,
    SampleTooSmall,
    StatisticKind,
    alr_limit_cv,
    alternative_statistics,
    engine,
    mixture_from,
    null_statistics,
    power_curve,
    power_curve_csv,
    simulate_null_distribution,
    size_table,
    size_table_csv,
)
from sparsemix.calibration import check_limit_request

REMOVED = (
    "BridgePath",
    "CriticalValueTable",
    "NullSample",
    "RandomStream",
    "SparsityParams",
    "StatisticResult",
    "compute_statistic",
    "ln_functional",
    "log_lr_term",
    "sample_alr_limit_cal1",
    "sample_alr_limit_cal2",
    "sample_alternative",
    "sample_bridge_path",
    "sample_ln",
    "sample_null",
)


def test_all_names_resolve_and_removed_names_are_gone():
    assert len(set(sparsemix.__all__)) == len(sparsemix.__all__)
    for name in sparsemix.__all__:
        assert getattr(sparsemix, name) is not None, name
    for name in REMOVED:
        assert name not in sparsemix.__all__
        assert not hasattr(sparsemix, name)


# ---------------------------------------------------------------------------
# a kind or a method may be passed as its member or as its value, in any case

HC, BJ, ALR = StatisticKind
EMPIRICAL, THRESH, EVI, EVII, CAL1, CAL2 = CalibrationMethod
_GRID = [mixture_from(100, 0.6), mixture_from(100, 0.8)]

# each call passes every kind and method through `form`
STRING_FORM_CASES = {
    "null_statistics": lambda form: null_statistics(
        100, 300, 1, (form(ALR), form(HC)), threads=1),
    "null_statistics-n2-alr": lambda form: null_statistics(2, 300, 1, (form(ALR),)),
    "alternative_statistics": lambda form: alternative_statistics(
        _GRID[0], 50, 1, kinds=(form(BJ),), threads=1),
    "alternative_grid": lambda form: engine.alternative_grid(
        _GRID, 50, 1, kinds=(form(HC), form(ALR)), threads=1),
    "simulate_null_distribution": lambda form: simulate_null_distribution(
        form(BJ), 100, 300, 1, threads=1),
    "size_table": lambda form: size_table(
        [100], [form(HC), form(BJ)], [form(EMPIRICAL), form(THRESH), form(EVI), form(EVII)],
        [0.05], 300, 1, threads=1),
    "size_table-alr": lambda form: size_table(
        [100], [form(ALR)], [form(EMPIRICAL), form(CAL1)], [0.05], 300, 1,
        threads=1, limit_reps=10_000),
    "size_table_csv": lambda form: size_table_csv(STRING_FORM_CASES["size_table"](form)),
    "power_curve": lambda form: power_curve(
        100, [0.6, 0.8], [form(BJ), form(ALR)], 0.05, 300, 50, 1, threads=1),
    "power_curve_csv": lambda form: power_curve_csv(STRING_FORM_CASES["power_curve"](form)),
    "alr_limit_cv": lambda form: alr_limit_cv(form(CAL1), 0.05, 10_000, 1, threads=1),
    "check_limit_request": lambda form: check_limit_request(
        form(CAL2), 0.05, 10_000, 1000, 256),
    "check_limit_request-n8": lambda form: check_limit_request(
        form(CAL2), 0.05, 10_000, 8, 100),
}
STRING_FORM_ERRORS = {"null_statistics-n2-alr": SampleTooSmall,
                      "check_limit_request-n8": DomainError}


def _assert_same(got, want):
    """got equals want bitwise, with every kind and method an enum member."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, enum.Enum):
        assert got is want
    elif isinstance(got, float):
        assert got.hex() == want.hex()
    elif isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif isinstance(got, dict):
        _assert_same(list(got.items()), list(want.items()))
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    elif dataclasses.is_dataclass(got):
        _assert_same(dataclasses.astuple(got), dataclasses.astuple(want))
    else:  # ints and CSV text
        assert got == want


@pytest.mark.parametrize(
    "form", [lambda m: m.value, lambda m: f"  {m.value.upper()} "],
    ids=["value", "padded-upper"],
)
@pytest.mark.parametrize("case", STRING_FORM_CASES)
def test_string_forms_give_the_enum_forms_result(case, form):
    if case in STRING_FORM_ERRORS:
        for each in (form, lambda m: m):
            with pytest.raises(STRING_FORM_ERRORS[case]):
                STRING_FORM_CASES[case](each)
    else:
        _assert_same(STRING_FORM_CASES[case](form), STRING_FORM_CASES[case](lambda m: m))


# a bare kind or method, member or value, is a str, and a bare n, level or
# sparsity, number or str, is no sequence, nor is an iterator of one: each is
# refused before anything is simulated, not iterated
BARE_CASES = {
    "null_statistics": lambda form: null_statistics(100, 300, 1, form(HC), threads=1),
    "alternative_statistics": lambda form: alternative_statistics(
        _GRID[0], 50, 1, kinds=form(HC), threads=1),
    "size_table-kinds": lambda form: size_table(
        [100], form(HC), [EMPIRICAL], [0.05], 300, 1, threads=1),
    "size_table-methods": lambda form: size_table(
        [100], [HC], form(THRESH), [0.05], 300, 1, threads=1),
    "size_table-ns": lambda form: size_table(
        form(100), [HC], [THRESH], [0.05], 300, 1, threads=1),
    "size_table-alphas": lambda form: size_table(
        [100], [HC], [EVI], form(0.05), 300, 1, threads=1),
    "power_curve": lambda form: power_curve(100, [0.6], form(HC), 0.05, 300, 50, 1, threads=1),
    "power_curve-betas": lambda form: power_curve(
        100, form(0.6), [HC], 0.05, 300, 50, 1, threads=1),
}


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated before refusing a bare value")


@pytest.mark.parametrize(
    "form",
    [lambda v: v, lambda v: v.value if isinstance(v, enum.Enum) else str(v),
     lambda v: (x for x in [v])],  # a sequence is read more than once, an iterator once
    ids=["member", "value", "iterator"],
)
@pytest.mark.parametrize("case", BARE_CASES)
def test_a_bare_kind_or_method_is_refused_as_no_sequence(monkeypatch, case, form):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    with pytest.raises(ConfigError, match=r"must be a sequence of .*, such as \("):
        BARE_CASES[case](form)


# ---------------------------------------------------------------------------
# an n or a count may be any integer, a NumPy one too, and gives the int's
# result bitwise; a float, a whole one too, is refused before anything is
# simulated

# each call passes every sample size and count through `i`
INTEGER_CASES = {
    "null_statistics": lambda i: null_statistics(i(100), i(300), 1, threads=1),
    "alternative_statistics": lambda i: alternative_statistics(
        mixture_from(i(100), 0.6), i(50), 1, threads=1),
    "simulate_null_distribution": lambda i: simulate_null_distribution(
        HC, i(100), i(300), 1, threads=1),
    "size_table-closed": lambda i: size_table(
        [i(100), i(1000)], [HC, BJ], [THRESH, EVI], [0.05], i(300), 1, threads=1),
    "size_table-empirical": lambda i: size_table(
        [i(100)], [HC], [EMPIRICAL], [0.05], i(300), 1, threads=1),
    "size_table-limit": lambda i: size_table(
        [i(100)], [ALR], [CAL2], [0.05], 300, 1, threads=1, limit_reps=i(10_000),
        limit_n_for_l=i(1000), limit_grid=i(256)),
    "power_curve": lambda i: power_curve(
        i(100), [0.6], [HC, BJ], 0.05, i(300), i(50), 1, threads=1),
    "alr_limit_cv": lambda i: alr_limit_cv(
        CAL2, 0.05, i(10_000), 1, n_for_l=i(1000), grid_size=i(256), threads=1),
    "check_limit_request": lambda i: check_limit_request(
        CAL1, 0.05, i(10_000), i(1000), i(256)),
}


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16], ids=lambda t: t.__name__)
@pytest.mark.parametrize("case", INTEGER_CASES)
def test_a_numpy_integer_gives_the_ints_result(case, integer):
    _assert_same(INTEGER_CASES[case](integer), INTEGER_CASES[case](int))


@pytest.mark.parametrize(
    "number", [float, lambda v: v + 0.5], ids=["whole-float", "half-float"]
)
@pytest.mark.parametrize("case", INTEGER_CASES)
def test_a_float_n_or_count_is_refused_before_simulating(monkeypatch, case, number):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    with pytest.raises(ConfigError, match="must be integers"):
        INTEGER_CASES[case](number)


def test_mixture_from_converts_n():
    for bad in ("100", 100.5):
        with pytest.raises(ConfigError, match="must be integers"):
            mixture_from(bad, 0.6)
    spec = mixture_from(np.int64(100), 0.6)
    assert spec == mixture_from(100, 0.6)
    assert type(spec.n) is int


# ---------------------------------------------------------------------------
# a stream sub-range may be any integer, a NumPy one too, and gives the int's
# result bitwise; anything else, or a grid reaching past 2^16 - 1, is refused
# before anything is simulated

def test_a_numpy_sub_range_gives_the_ints_result():
    for sub in (3, 2**16 - 1):
        _assert_same(alternative_statistics(_GRID[0], 50, 1, sub=np.int64(sub), threads=1),
                     alternative_statistics(_GRID[0], 50, 1, sub=sub, threads=1))
    _assert_same(engine.alternative_grid(_GRID, 50, 1, first_sub=np.int64(3), threads=1),
                 engine.alternative_grid(_GRID, 50, 1, first_sub=3, threads=1))


@pytest.mark.parametrize(
    "sub,specs,error",
    [(1.0, 1, ConfigError), ("1", 1, ConfigError), (-1, 1, OutOfRange),
     (2**16, 1, OutOfRange), (2**16 - 1, 2, OutOfRange)],
    ids=["float", "str", "negative", "2**16", "grid-2**16-1"],
)
def test_a_bad_sub_range_is_refused_before_simulating(monkeypatch, sub, specs, error):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    with pytest.raises(error, match="sub"):
        if specs == 1:
            alternative_statistics(_GRID[0], 50, 1, sub=sub, threads=1)
        else:
            engine.alternative_grid(_GRID[:specs], 50, 1, first_sub=sub, threads=1)


def test_arrays_of_sizes_levels_and_sparsities_give_the_lists_result():
    def table(ns, alphas):
        return size_table(ns, [HC, BJ], [THRESH, EMPIRICAL], alphas, 300, 1, threads=1)

    _assert_same(table(np.array([100, 1000]), np.array([0.05, 0.1])),
                 table([100, 1000], [0.05, 0.1]))

    def curve(betas):
        return power_curve(100, betas, [HC], 0.05, 300, 50, 1, threads=1)

    _assert_same(curve(np.array([0.6, 0.7])), curve([0.6, 0.7]))


def test_empty_arrays_of_sizes_levels_and_sparsities_are_refused(monkeypatch):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    empty = np.array([])
    for ns, alphas in ((empty, [0.05]), ([100], empty)):
        with pytest.raises(ConfigError, match="at least one n"):
            size_table(ns, [HC], [THRESH], alphas, 300, 1, threads=1)
    with pytest.raises(DomainError, match="nonempty"):
        power_curve(100, empty, [HC], 0.05, 300, 50, 1, threads=1)


# ---------------------------------------------------------------------------
# a master seed may be any integer in [0, 2^64), a NumPy one too, and gives
# the int's result bitwise; anything else is refused before anything is
# simulated

# each call passes the master seed through `s`
SEED_CASES = {
    "null_statistics": lambda s: null_statistics(100, 300, s(1), threads=1),
    "alternative_statistics": lambda s: alternative_statistics(
        mixture_from(100, 0.6), 50, s(1), threads=1),
    "simulate_null_distribution": lambda s: simulate_null_distribution(
        HC, 100, 300, s(1), threads=1),
    "size_table-closed": lambda s: size_table(
        [100], [HC, BJ], [THRESH, EVI], [0.05], 300, s(1), threads=1),
    "size_table-limit": lambda s: size_table(
        [100], [ALR], [EMPIRICAL, CAL1], [0.05], 300, s(1), threads=1, limit_reps=10_000),
    "power_curve": lambda s: power_curve(100, [0.6], [HC, BJ], 0.05, 300, 50, s(1), threads=1),
    "alr_limit_cv": lambda s: alr_limit_cv(CAL1, 0.05, 10_000, s(1), threads=1),
}


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.uint8], ids=lambda t: t.__name__)
@pytest.mark.parametrize("case", SEED_CASES)
def test_a_numpy_seed_gives_the_ints_result(case, integer):
    _assert_same(SEED_CASES[case](integer), SEED_CASES[case](int))


@pytest.mark.parametrize(
    "seed,error",
    [(float, ConfigError), (str, ConfigError), (lambda v: -v, OutOfRange),
     (lambda v: 2**64 + v - 1, OutOfRange)],
    ids=["float", "str", "negative", "2**64"],
)
@pytest.mark.parametrize("case", SEED_CASES)
def test_a_bad_seed_is_refused_before_simulating(monkeypatch, case, seed, error):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    with pytest.raises(error, match="master_seed"):
        SEED_CASES[case](seed)


def test_a_str_replicate_count_is_refused_before_simulating(monkeypatch):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    with pytest.raises(ConfigError, match="must be integers"):
        simulate_null_distribution(HC, 100, "300", 1, threads=1)


# ---------------------------------------------------------------------------
# a thread count may be any integer >= 0, a NumPy one too, and gives the
# int's result; anything else is refused before any task runs

# each call passes the thread count through `t`
THREAD_CASES = {
    "null_statistics": lambda t: null_statistics(100, 300, 1, threads=t(2)),
    "size_table": lambda t: size_table(
        [100], [ALR], [EMPIRICAL, CAL1], [0.05], 300, 1, threads=t(2), limit_reps=10_000),
    "power_curve": lambda t: power_curve(100, [0.6], [HC, BJ], 0.05, 300, 50, 1, threads=t(2)),
    "alr_limit_cv": lambda t: alr_limit_cv(CAL1, 0.05, 10_000, 1, threads=t(2)),
}


@pytest.mark.parametrize("case", THREAD_CASES)
def test_a_numpy_thread_count_gives_the_ints_result(case):
    _assert_same(THREAD_CASES[case](np.int64), THREAD_CASES[case](int))


def _no_task(*args):
    raise AssertionError("ran a task before refusing the thread count")


@pytest.mark.parametrize(
    "threads", [float, str, lambda v: None], ids=["float", "str", "None"])
@pytest.mark.parametrize("case", THREAD_CASES)
def test_a_non_integer_thread_count_is_refused_before_any_task(monkeypatch, case, threads):
    monkeypatch.setattr(engine, "map_tasks", _no_task)
    with pytest.raises(ConfigError, match="threads must be integers"):
        THREAD_CASES[case](threads)
