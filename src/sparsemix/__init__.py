"""Sparse normal mixture detection.

Higher criticism, one-sided Berk-Jones, and average likelihood ratio
statistics on p-value samples, with Monte Carlo and asymptotic critical-value
calibration, size tables, and power curves.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationMethod,
    alr_limit_cv,
    empirical_cv,
    evi_cv,
    evii_cv,
    quantile_index,
    simulate_null_distribution,
    thresh_cv,
)
from .engine import alternative_statistics, null_statistics
from .errors import (
    AlphaOutOfRange,
    ConfigError,
    DomainError,
    EmptyOrSingleton,
    IncompatibleMethod,
    InsufficientReplicates,
    IoError,
    NegativeQ,
    NonFinite,
    OutOfMemory,
    OutOfRange,
    SampleTooSmall,
    SparsemixError,
    UnsupportedStatistic,
    WorkerLost,
)
from .experiments import (
    PowerCurvePoint,
    SizeTableRow,
    beta_grid_default,
    power_curve,
    power_curve_csv,
    size_table,
    size_table_csv,
)
from .mixture import (
    MixtureSpec,
    mixture_from,
    pvalue,
    r_of_beta,
    rho_star,
)
from .plots import svg_from_power_csv
from .rng import (
    DOMAIN_CAL1,
    DOMAIN_CAL2,
    DOMAIN_NULL,
    DOMAIN_POWER,
    DOMAIN_SHIFT,
    stream_id_for,
)
from .stats import (
    SortedPValues,
    StatisticKind,
    bj_plus,
    hc_star,
    log_alr,
    prepare,
    supported_kinds,
)

__all__ = [
    "__version__",
    "AlphaOutOfRange",
    "CalibrationMethod",
    "ConfigError",
    "DomainError",
    "DOMAIN_CAL1",
    "DOMAIN_CAL2",
    "DOMAIN_NULL",
    "DOMAIN_POWER",
    "DOMAIN_SHIFT",
    "EmptyOrSingleton",
    "IncompatibleMethod",
    "InsufficientReplicates",
    "IoError",
    "MixtureSpec",
    "NegativeQ",
    "NonFinite",
    "OutOfMemory",
    "OutOfRange",
    "PowerCurvePoint",
    "SampleTooSmall",
    "SizeTableRow",
    "SortedPValues",
    "SparsemixError",
    "StatisticKind",
    "UnsupportedStatistic",
    "WorkerLost",
    "alr_limit_cv",
    "alternative_statistics",
    "beta_grid_default",
    "bj_plus",
    "empirical_cv",
    "evi_cv",
    "evii_cv",
    "hc_star",
    "log_alr",
    "mixture_from",
    "null_statistics",
    "power_curve",
    "power_curve_csv",
    "prepare",
    "pvalue",
    "quantile_index",
    "r_of_beta",
    "rho_star",
    "simulate_null_distribution",
    "size_table",
    "size_table_csv",
    "stream_id_for",
    "supported_kinds",
    "svg_from_power_csv",
    "thresh_cv",
]
