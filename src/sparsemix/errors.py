"""Error taxonomy. Each class carries a distinct process exit code for the CLI.

`check_integers` is the package's one integer conversion; it lives here so
that every module can refuse a non-integer with ConfigError."""

from __future__ import annotations

import operator


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


def check_integers(**values) -> list[int]:
    """The values as ints, in order, or ConfigError before anything runs: a
    NumPy integer is an integer, a float (100.0 too) is not."""
    try:
        return [operator.index(v) for v in values.values()]
    except TypeError:
        got = ", ".join(f"{name}={v!r}" for name, v in values.items())
        raise ConfigError(f"{', '.join(values)} must be integers, got {got}") from None
