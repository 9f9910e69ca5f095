"""Error taxonomy, and the one conversion of every public argument.

Each error class carries a distinct process exit code for the CLI.
`convert` turns the arguments of the public API, by name, into the values
the package computes with, through one table, `_ARGUMENTS`.  Every function
of `sparsemix.__all__`, and `MixtureSpec`, passes what it receives through
it before anything is simulated.  An integer is an int or a NumPy integer,
never a bool, a float (100.0 too), a str or an array, and becomes an int; a
real number is such an integer, a float or a NumPy float, and becomes a
finite float (NonFinite).  Anything else raises ConfigError, and a number
outside its interval its row's error.  A kind or a method goes through its
enum's constructor, found when first used: this module imports none of the
package.  A plural name takes a sequence (not a str or an iterator) of
distinct values of its singular, and gives a list.
"""

from __future__ import annotations

import importlib
import math
import numbers
import operator
from collections.abc import Collection
from functools import lru_cache


class SparsemixError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(SparsemixError):
    """Invalid CLI flags, malformed input files, or inconsistent run options."""

    exit_code = 2


class IoError(SparsemixError):
    """Filesystem failure while reading input or writing output."""

    exit_code = 3


class EmptyOrSingleton(SparsemixError):
    """Sample has fewer than two values."""

    exit_code = 4


class NonFinite(SparsemixError):
    """NaN or infinity where a finite number is required."""

    exit_code = 5


class OutOfRange(SparsemixError):
    """Value outside its admissible interval (e.g. a p-value outside [0, 1])."""

    exit_code = 6


class DomainError(SparsemixError):
    """Parameter outside the mathematical domain of an operation."""

    exit_code = 7


class SampleTooSmall(SparsemixError):
    """Sample size below the minimum an operation supports."""

    exit_code = 8


class UnsupportedStatistic(SparsemixError):
    """Statistic kind not handled by the requested operation."""

    exit_code = 9


class NegativeQ(SparsemixError):
    """Extreme-value quantile became non-positive, so sqrt(2q) is undefined."""

    exit_code = 10


class AlphaOutOfRange(SparsemixError):
    """Significance level outside (0, 1)."""

    exit_code = 11


class InsufficientReplicates(SparsemixError):
    """Too few Monte Carlo replicates for the requested tail quantile."""

    exit_code = 12


class IncompatibleMethod(SparsemixError):
    """Calibration method does not apply to the requested statistic."""

    exit_code = 13


class WorkerLost(SparsemixError):
    """A worker process died (killed by a signal, say) before its task ended."""

    exit_code = 14


class OutOfMemory(SparsemixError):
    """An allocation failed: the request needs more memory than the process
    may use, in this process or in a worker."""

    exit_code = 15


# (int or float, admissible interval, error outside it), (an enum, None,
# None) or, for a sequence, (list, its singular, an example)
_ARGUMENTS = {
    **dict.fromkeys(("n", "n_for_l", "limit_n_for_l"), (int, "[2, inf)", SampleTooSmall)),
    **dict.fromkeys(("reps", "reps_cal", "reps_pow", "limit_reps"),
                    (int, "[1, inf)", InsufficientReplicates)),
    **dict.fromkeys(("grid_size", "limit_grid"), (int, "[1, inf)", DomainError)),
    "master_seed": (int, "[0, 2^64)", OutOfRange),
    "threads": (int, "[0, inf)", ConfigError),
    **dict.fromkeys(("sub", "first_sub", "domain"), (int, "[0, 2^16)", OutOfRange)),
    "index": (int, "[0, 2^32)", OutOfRange),
    "alpha": (float, "(0, 1)", AlphaOutOfRange),
    "beta": (float, "(0.5, 1]", DomainError),
    "r": (float, "(0, inf)", DomainError),
    "eps": (float, "[0, 1)", OutOfRange),
    "mu": (float, "[0, inf)", OutOfRange),
    "kind": ("stats.StatisticKind", None, None),
    **dict.fromkeys(("method", "variant"), ("calibration.CalibrationMethod", None, None)),
    "ns": (list, "n", "(100, 1000)"),
    "alphas": (list, "alpha", "(0.05, 0.1)"),
    "betas": (list, "beta", "(0.6, 0.8)"),
    "kinds": (list, "kind", "('hc', 'bj')"),
    "methods": (list, "method", "('empirical',)"),
}


def convert(**named) -> list:
    """The named arguments converted by their rows of `_ARGUMENTS`, in order."""
    return [_convert(name, value) for name, value in named.items()]


@lru_cache(maxsize=None)
def _bounds(interval: str) -> tuple:
    """The two ends of an interval such as "[0, 2^64)", as numbers."""
    ends = [end.partition("^") for end in interval[1:-1].split(", ")]
    return tuple(int(base) ** int(power) if power else float(base) for base, _, power in ends)


def _convert(name: str, value, row: tuple | None = None):
    kind, interval, error = row or _ARGUMENTS[name]
    if kind is list:
        try:
            if isinstance(value, str) or not isinstance(value, Collection):
                raise TypeError
            items = [_convert(name, item, _ARGUMENTS[interval]) for item in value]
        except TypeError:  # a 0-d array is a Collection that cannot be iterated
            raise ConfigError(f"{name} must be a sequence of {interval} values, such as "
                              f"{error}, not {value!r}") from None
        if len(set(items)) < len(items):
            raise ConfigError(f"{name} must not repeat a value, got {value!r}")
        return items
    if isinstance(kind, str):
        module, enum = kind.split(".")
        return getattr(importlib.import_module(f"{__package__}.{module}"), enum)(value)
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ConfigError(f"{name} must be {'integers' if kind is int else 'real numbers'}, "
                          f"got {value!r}")
    value = operator.index(value) if kind is int else float(value)
    if kind is float and not math.isfinite(value):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    lo, hi = _bounds(interval)
    if not (lo < value or interval[0] == "[" and lo == value) or not (
            value < hi or interval[-1] == "]" and value == hi):
        raise error(f"{name} must lie in {interval}, got {value!r}")
    return value
