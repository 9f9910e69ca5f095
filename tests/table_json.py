"""Read a critical value table back from the JSON that `calibrate` writes.

The package only writes these tables; the tests read them back to check
what was written.
"""

import json

from sparsemix import CalibrationMethod, ConfigError, StatisticKind


def table_from_json(text: str) -> dict:
    """The table of a `calibrate` JSON text as a dict of its kind, n, method,
    R and master_seed, with its entries as {alpha: cv}; extra keys are
    ignored, and anything malformed raises ConfigError."""
    try:
        payload = json.loads(text)
        return {
            "kind": StatisticKind(payload["kind"]),
            "n": int(payload["n"]),
            "method": CalibrationMethod(payload["method"]),
            "R": int(payload["R"]),
            "master_seed": int(payload["master_seed"]),
            "entries": {float(e["alpha"]): float(e["cv"]) for e in payload["entries"]},
        }
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed critical value table: {exc}") from None
