"""Correctness checks for the artifacts the benchmark's commands write.

Two checks apply to every artifact:

* its body, with the run-specific configuration removed, is byte-identical
  across all runs of one seed (the runner compares bodies);
* each realized size, power and log critical value lies within Z Monte Carlo
  standard errors of a reference value recorded at the seed commit over
  several seeds (`reference.json`, written by `make_reference.py`).

The CSV `# config` line and the JSON `config` key embed `--out` and
`--threads`, so they differ between runs that must agree; they are dropped
before bodies are compared.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

# Band half-width in standard errors.  Wide enough that a run at any seed, or
# after a declared RNG re-baseline, passes; narrow enough that a wrong kernel
# or calibration shifts some cell out of it.
Z = 6.0

SIZE_HEADER = "n,kind,method,alpha,size,R,seed"
POWER_HEADER = "beta,kind,power,n,R_cal,R_pow,cv,seed"


class Malformed(Exception):
    """An artifact is missing, unparsable, or inconsistent with its request."""


# cells map a key such as "size:n=100,kind=hc,method=evi,alpha=0.05" to
# (value, replicate count the value was estimated from)
Cells = dict[str, tuple[float, int]]


def _number(token: str, what: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise Malformed(f"{what}: not a number: {token!r}") from None
    if not math.isfinite(x):
        raise Malformed(f"{what}: not finite: {token!r}")
    return x


def _proportion(token: str, what: str) -> float:
    x = _number(token, what)
    if not 0.0 <= x <= 1.0:
        raise Malformed(f"{what}: {x} outside [0, 1]")
    return x


def _count(token, what: str) -> int:
    x = _number(str(token), what)
    if x != int(x) or x < 1:
        raise Malformed(f"{what}: {token!r} is not a positive count")
    return int(x)


def _read_csv(text: str, seed: int) -> tuple[str, Cells]:
    lines = text.splitlines(keepends=True)
    if not lines or not lines[0].startswith("# sparsemix "):
        raise Malformed("CSV lacks the version line")
    body_lines = [ln for ln in lines if not ln.startswith("# config ")]
    data = [ln.rstrip("\n") for ln in body_lines if not ln.startswith("#")]
    if not data:
        raise Malformed("CSV has no header")
    header, rows = data[0], [r.split(",") for r in data[1:]]
    if not rows:
        raise Malformed("CSV has no data rows")
    cells: Cells = {}
    for r in rows:
        if len(r) != len(header.split(",")):
            raise Malformed(f"CSV row has {len(r)} fields: {','.join(r)!r}")
        if int(_number(r[-1], "seed")) != seed:
            raise Malformed(f"CSV row carries seed {r[-1]}, expected {seed}")
        if header == SIZE_HEADER:
            n, kind, method, alpha, size, reps, _ = r
            key = f"size:n={n},kind={kind},method={method},alpha={alpha}"
            cells[key] = (_proportion(size, key), _count(reps, "R"))
        elif header == POWER_HEADER:
            beta, kind, power, _, _, reps_pow, cv, _ = r
            key = f"power:beta={beta},kind={kind}"
            _number(cv, f"{key} cv")
            cells[key] = (_proportion(power, key), _count(reps_pow, "R_pow"))
        else:
            raise Malformed(f"unknown CSV header {header!r}")
    if len(cells) != len(rows):
        raise Malformed("CSV repeats a cell")
    return "".join(body_lines), cells


def _read_json(text: str, seed: int) -> tuple[str, Cells]:
    try:
        payload = json.loads(text)
        payload.pop("config")
        variant, reps, entries = payload["variant"], payload["R"], payload["entries"]
        if payload["master_seed"] != seed:
            raise Malformed(f"JSON carries seed {payload['master_seed']}, expected {seed}")
        cells: Cells = {}
        for e in entries:
            key = f"log_cv:variant={variant},alpha={e['alpha']}"
            log_cv = _number(str(e["log_cv"]), key)
            if not math.isclose(math.exp(log_cv), e["cv"], rel_tol=1e-12):
                raise Malformed(f"{key}: cv != exp(log_cv)")
            cells[key] = (log_cv, _count(reps, "R"))
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
        raise Malformed(f"malformed JSON artifact: {exc!r}") from None
    if not cells:
        raise Malformed("JSON artifact has no entries")
    return json.dumps(payload, sort_keys=True), cells


def _read_svg(text: str) -> tuple[str, Cells]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise Malformed(f"SVG does not parse: {exc}") from None
    if next(root.iter("{http://www.w3.org/2000/svg}polyline"), None) is None:
        raise Malformed("SVG has no power-curve polylines")
    return text, {}


def read_artifact(kind: str, path: str, seed: int) -> tuple[str, Cells]:
    """(body without run-specific config, checked cells) of one artifact."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise Malformed(f"cannot read {path}: {exc}") from None
    if kind == "csv":
        return _read_csv(text, seed)
    if kind == "json":
        return _read_json(text, seed)
    return _read_svg(text)


def band_failures(cells: Cells, reference: dict) -> list[str]:
    """Cells outside the reference band, plus missing and unexpected cells.

    reference maps each key to {"mean", "sd", "R"}: the mean and the standard
    deviation across reference seeds of a value estimated from R replicates.
    A proportion's standard error is never taken below its binomial standard
    error, computed with p kept at least 5/R away from 0 and 1.
    """
    failures = [f"{key}: missing" for key in reference if key not in cells]
    for key, (x, reps) in cells.items():
        ref = reference.get(key)
        if ref is None:
            failures.append(f"{key}: not in the reference")
            continue
        se = ref["sd"] * math.sqrt(ref["R"] / reps)
        if not key.startswith("log_cv:"):
            p = min(max(ref["mean"], 5.0 / reps), 1.0 - 5.0 / reps)
            se = max(se, math.sqrt(p * (1.0 - p) / reps))
        if abs(x - ref["mean"]) > Z * se:
            failures.append(
                f"{key}: {x:.6g} outside {ref['mean']:.6g} +- {Z:g} * {se:.3g}"
            )
    return failures
