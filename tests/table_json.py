"""Read a critical value table back from the JSON that `calibrate` writes,
and look up its entries.

The package only writes these tables; the tests read them back to check
what was written.
"""

import json

from sparsemix import (
    CalibrationMethod,
    ConfigError,
    CriticalValueTable,
    DomainError,
    StatisticKind,
)


def table_from_json(text: str) -> CriticalValueTable:
    """The table of a `CriticalValueTable.to_json` text; extra keys are
    ignored, and anything malformed raises ConfigError."""
    try:
        payload = json.loads(text)
        return CriticalValueTable(
            kind=StatisticKind.parse(payload["kind"]),
            n=int(payload["n"]),
            method=CalibrationMethod.parse(payload["method"]),
            entries=tuple((float(e["alpha"]), float(e["cv"])) for e in payload["entries"]),
            reps=None if payload["R"] is None else int(payload["R"]),
            master_seed=(
                None if payload["master_seed"] is None else int(payload["master_seed"])
            ),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed critical value table: {exc}") from None


def table_cv(table: CriticalValueTable, alpha: float) -> float:
    """The critical value that `table` lists at exactly `alpha`; DomainError
    if it lists none."""
    for a, c in table.entries:
        if a == alpha:
            return c
    raise DomainError(f"alpha {alpha!r} not in table")
