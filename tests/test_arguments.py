"""One property over the whole public API: every argument that the
conversion table (`errors._ARGUMENTS`) names, given as an odd value (a NumPy
scalar of any width, a bool, a whole or fractional float, NaN, a str, None,
-1, 2^64, a 0-d array, an iterator, a repeating sequence), either acts as
its plain int or float would, bitwise, or is refused with a SparsemixError
before anything is simulated.  Then the examples that failed before the
table, one per argument and entry point."""

import dataclasses
import enum
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsemix
from sparsemix import (
    ConfigError,
    MixtureSpec,
    SparsemixError,
    alr_limit_cv,
    bj_plus,
    empirical_cv,
    engine,
    evi_cv,
    evii_cv,
    hc_star,
    log_alr,
    mixture_from,
    power_curve,
    quantile_index,
    size_table,
    stream_id_for,
    supported_kinds,
    svg_from_power_csv,
    thresh_cv,
)
from sparsemix.errors import _ARGUMENTS

# the arguments that carry data rather than a setting, which the table does
# not convert
DATA = {"x", "raw", "replicates", "sample", "csv_text", "rows", "points", "spec", "specs"}

_X = np.linspace(0.5, 3.0, 300)
_SPEC = mixture_from(100, 0.6)

# one call of every public function with a table argument, by keyword, with
# plain values; simulating ones stop at engine.simulate
CASES = {
    "null_statistics": (sparsemix.null_statistics, dict(
        n=100, reps=200, master_seed=1, kinds=("hc", "bj"), threads=1)),
    "alternative_statistics": (sparsemix.alternative_statistics, dict(
        spec=_SPEC, reps=50, master_seed=1, sub=3, kinds=["hc"], threads=1)),
    "simulate_null_distribution": (sparsemix.simulate_null_distribution, dict(
        kind="bj", n=100, reps=200, master_seed=1, threads=1)),
    "size_table-closed": (size_table, dict(
        ns=[100, 1000], kinds=["hc", "bj"], methods=["thresh", "evi"], alphas=[0.05, 0.1],
        reps=200, master_seed=1, threads=1)),
    "size_table-limit": (size_table, dict(
        ns=[100], kinds=["alr"], methods=["empirical", "cal2"], alphas=[0.05], reps=200,
        master_seed=1, threads=1, limit_reps=10_000, limit_n_for_l=1000, limit_grid=256)),
    "power_curve": (power_curve, dict(
        n=100, betas=[0.6, 0.8], kinds=["hc", "alr"], alpha=0.05, reps_cal=200, reps_pow=50,
        master_seed=1, threads=1)),
    "alr_limit_cv": (alr_limit_cv, dict(
        variant="cal2", alpha=0.05, reps=10_000, master_seed=1, n_for_l=1000, grid_size=256,
        threads=1)),
    "empirical_cv": (empirical_cv, dict(replicates=_X, alpha=0.05)),
    "quantile_index": (quantile_index, dict(reps=200, alpha=0.05)),
    "thresh_cv": (thresh_cv, dict(kind="hc", n=100)),
    "evi_cv": (evi_cv, dict(kind="bj", n=1000, alpha=0.05)),
    "evii_cv": (evii_cv, dict(kind="hc", n=1000, alpha=0.1)),
    "mixture_from": (mixture_from, dict(n=100, beta=0.6, r=0.5)),
    "rho_star": (sparsemix.rho_star, dict(beta=0.8)),
    "r_of_beta": (sparsemix.r_of_beta, dict(beta=0.6)),
    "stream_id_for": (stream_id_for, dict(domain=1, sub=2, index=3)),
    "supported_kinds": (supported_kinds, dict(n=100)),
    "MixtureSpec": (MixtureSpec, dict(n=100, eps=0.1, mu=1.5)),
}

_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
_FLOATS = (np.float16, np.float32, np.float64, np.longdouble)


def _odd(name: str, plain) -> list:
    """Makers of odd forms of an argument whose plain value is `plain`."""
    kind, singular, _ = _ARGUMENTS[name]
    common = [lambda: True, lambda: False, lambda: None, lambda: math.nan,
              lambda: str(plain), lambda: iter([plain])]
    if kind is list:
        items = [lambda: plain[0], lambda: str(plain[0]), lambda: np.array(plain),
                 lambda: tuple(plain), lambda: iter(plain), lambda: [*plain, plain[0]],
                 lambda: np.array(plain[0])]
        return common + items + [lambda f=f: [f(), *plain[1:]] for f in _odd(singular, plain[0])]
    if isinstance(kind, str):  # an enum
        return common + [lambda: f" {plain.upper()} ", lambda: np.str_(plain), lambda: "ks",
                         lambda: 1, lambda: b"hc", lambda: [plain]]
    if kind is int:  # every width that holds it, and every float
        widths = [lambda t=t: t(plain) for t in _INTEGERS
                  if np.iinfo(t).min <= plain <= np.iinfo(t).max]
    else:  # every float, and every integer of the nearest whole number
        widths = [lambda t=t: t(round(plain)) for t in _INTEGERS]
    widths += [lambda t=t: t(plain) for t in _FLOATS]
    return common + widths + [
        lambda: float(plain), lambda: plain + 0.5, lambda: -1, lambda: 2**64,
        lambda: np.uint64(2**64 - 1), lambda: np.array(plain), lambda: math.inf, lambda: 0]


def _plain(value):
    """The Python value of a NumPy scalar or array, element by element."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist() if isinstance(value, np.ndarray) and value.ndim else value.item()
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


class _Simulated(Exception):
    pass


def _outcome(call, kwargs, calls):
    """("simulate", its arguments) or ("return", the result) of the call, or
    the error it raised."""
    try:
        result = call(**kwargs)
    except _Simulated:
        return "simulate", calls.pop()
    except SparsemixError as exc:
        return "refused", exc
    return "return", result


def _same(a, b) -> bool:
    """a equals b bitwise, with the same types throughout."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return _same(dataclasses.astuple(a), dataclasses.astuple(b))
    if isinstance(a, enum.Enum):
        return a is b
    return a == b


def _public_calls():
    for name in sparsemix.__all__:
        obj = getattr(sparsemix, name)
        if inspect.isfunction(obj) or obj is MixtureSpec:
            yield name, obj


def test_every_public_argument_is_in_the_table_or_data():
    unknown = [f"{name}({param})" for name, call in _public_calls()
               for param in inspect.signature(call).parameters
               if param not in _ARGUMENTS and param not in DATA]
    assert unknown == []
    # every public call with a table argument has a case here
    cased = {case.split("-")[0] for case in CASES}
    assert cased == {name for name, call in _public_calls()
                     if set(inspect.signature(call).parameters) - DATA}


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_an_odd_argument_acts_as_its_plain_value_or_is_refused(data):
    case = data.draw(st.sampled_from(sorted(CASES)), label="case")
    call, kwargs = CASES[case]
    name = data.draw(st.sampled_from(sorted(set(kwargs) - DATA)), label="argument")
    odd = data.draw(st.sampled_from(_odd(name, kwargs[name])), label="maker")()
    calls = []

    def simulate(task, params, total, threads):
        calls.append((task.__name__, params, total, threads))
        raise _Simulated

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "simulate", simulate)
        got = _outcome(call, {**kwargs, name: odd}, calls)
        if got[0] == "refused":
            return
        want = _outcome(call, {**kwargs, name: _plain(odd)}, calls)
    assert got[0] == want[0], (odd, got, want)
    assert _same(got[1], want[1]), (odd, got, want)


# ---------------------------------------------------------------------------
# examples: each raised an untyped error, or ran, before the table

def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated before refusing")


EXAMPLES = {
    # MixtureSpec converts its fields
    "MixtureSpec-str-n": lambda: MixtureSpec(n="100", eps=0.1, mu=1.0),
    "MixtureSpec-str-eps": lambda: MixtureSpec(n=100, eps="0.1", mu=1.0),
    "MixtureSpec-float-n": lambda: MixtureSpec(n=100.0, eps=0.1, mu=1.0),
    # one rule for a level
    "size_table-str-alpha": lambda: size_table([100], ["hc"], ["empirical"], ["0.05"], 200, 1),
    "power_curve-None-alpha": lambda: power_curve(100, [0.6], ["hc"], None, 200, 20, 1),
    "evii_cv-None-alpha": lambda: evii_cv("bj", 100, None),
    "empirical_cv-str-alpha": lambda: empirical_cv(_X, "0.05"),
    "alr_limit_cv-str-alpha": lambda: alr_limit_cv("cal1", "0.05", 10_000, 1),
    # non-integers and untyped errors
    "thresh_cv-half-n": lambda: thresh_cv("hc", 100.5),
    "quantile_index-half-reps": lambda: quantile_index(100.5, 0.05),
    "evi_cv-str-n": lambda: evi_cv("hc", "100", 0.05),
    "supported_kinds-str-n": lambda: supported_kinds("100"),
    "quantile_index-str-reps": lambda: quantile_index("100", 0.05),
    "stream_id_for-str": lambda: stream_id_for("1", 0, 0),
    "stream_id_for-float": lambda: stream_id_for(1.0, 0, 0),
    "svg_from_power_csv-int": lambda: svg_from_power_csv(123),
    "hc_star-list": lambda: hc_star([0.1, 0.2, 0.3]),
    "bj_plus-list": lambda: bj_plus([0.1, 0.2, 0.3]),
    "log_alr-list": lambda: log_alr([0.1, 0.2, 0.3, 0.4]),
    "null_statistics-bool-threads": lambda: sparsemix.null_statistics(100, 200, 1,
                                                                      threads=True),
    # a repeated entry of a sequence
    "size_table-repeated-n": lambda: size_table([100, 100], ["hc"], ["thresh"], [0.05], 200, 1),
    "power_curve-repeated-beta": lambda: power_curve(100, [0.6, 0.6], ["hc"], 0.05, 200, 20, 1),
}


@pytest.mark.parametrize("case", EXAMPLES)
def test_each_example_is_refused_before_simulating(monkeypatch, case):
    monkeypatch.setattr(engine, "simulate", _no_simulation)
    with pytest.raises(ConfigError) as refused:
        EXAMPLES[case]()
    if case.startswith(("hc_star", "bj_plus", "log_alr")):
        assert "prepare" in str(refused.value)


def test_mixture_spec_holds_python_numbers():
    spec = MixtureSpec(n=np.int64(100), eps=np.float32(0.25), mu=1)
    assert (type(spec.n), type(spec.eps), type(spec.mu)) == (int, float, float)
    assert spec == MixtureSpec(n=100, eps=0.25, mu=1.0)
