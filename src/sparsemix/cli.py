"""Command-line interface.

Subcommands: stat, calibrate, size-table, power-curve, alr-limit.  Every
output embeds the package version and the full run configuration, outputs are
written atomically, and errors exit with the code of their error class after
a single diagnostic line on stderr.  A simulating command runs all of its
simulations on one worker pool (`engine.workers`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, engine
from .calibration import (
    CalibrationMethod,
    CriticalValueTable,
    alr_limit_cv,
    check_limit_request,
    check_tail,
    empirical_cv,
    quantile_index,
    simulate_null_distribution,
)
from .errors import ConfigError, IoError, SparsemixError
from .experiments import (
    beta_grid_default,
    power_curve,
    power_curve_csv,
    size_table,
    size_table_csv,
)
from .mixture import pvalue
from .plots import svg_from_power_csv
from .stats import StatisticKind, bj_plus, hc_star, log_alr, prepare


def _run_config(args: argparse.Namespace) -> dict:
    """The full configuration of one CLI run, embedded in every output, with
    the numpy version that its draws rest on (see the `rng` docstring)."""
    raw = dict(vars(args))
    command = raw.pop("command")
    seed = raw.pop("seed", None)
    outputs = {k: raw.pop(k) for k in ("out", "svg") if k in raw}
    return {"command": command, "parameters": raw, "seed": seed, "outputs": outputs,
            "numpy": np.__version__}


def _parse_list(text: str, flag: str, parse) -> list:
    """The comma-separated values of `flag`, each through `parse`; a
    malformed, empty or repeating list is a ConfigError."""
    try:
        values = [parse(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated values, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} expects at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag} values must be distinct, got {text!r}")
    return values


def _parse_alphas(text: str) -> list[float]:
    return sorted(_parse_list(text, "--alpha", float))


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    return seed


def _write_text(path: str, text: str) -> None:
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    except BaseException:
        # a failed write or rename leaves no temporary file behind
        tmp.unlink(missing_ok=True)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(config: dict, body: str) -> str:
    header = (
        f"# sparsemix {__version__}\n"
        f"# config {json.dumps(config, sort_keys=True)}\n"
    )
    return header + body


def _read_sample(path: str, input_kind: str):
    values: list[float] = []
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a text file of numbers") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: not a number: {token!r}") from None
    if input_kind == "observations":
        return prepare(pvalue(np.asarray(values, dtype=float)))
    return prepare(values)


def _cmd_stat(args: argparse.Namespace, config: dict) -> int:
    sample = _read_sample(args.input, args.input_kind)
    results: dict[str, float] = {}
    want = args.stat
    if want in ("hc", "all"):
        results["hc"] = hc_star(sample)
    if want in ("bj", "all"):
        results["bj"] = bj_plus(sample)
    if want in ("alr", "all"):
        results["log_alr"] = log_alr(sample)
    payload = {"version": __version__, "config": config, "n": sample.n, **results}
    sys.stdout.write(_json_text(payload))
    return 0


def _precheck_alphas(reps: int, alphas: list[float]) -> None:
    """Fail before simulating if a requested level cannot be calibrated."""
    for a in alphas:
        quantile_index(reps, a)
        check_tail(reps, a)


def _cmd_calibrate(args: argparse.Namespace, config: dict) -> int:
    _check_seed(args.seed)
    kind = StatisticKind.parse(args.stat)
    alphas = _parse_alphas(args.alpha)
    _precheck_alphas(args.reps, alphas)
    sample = simulate_null_distribution(
        kind, args.n, args.reps, args.seed, threads=args.threads
    )
    entries = tuple((a, empirical_cv(sample, a)) for a in alphas)
    table = CriticalValueTable(
        kind=kind,
        n=args.n,
        method=CalibrationMethod.EMPIRICAL,
        entries=entries,
        reps=args.reps,
        master_seed=args.seed,
    )
    payload = {"version": __version__, "config": config, **json.loads(table.to_json())}
    _write_text(args.out, _json_text(payload))
    return 0


def _cmd_size_table(args: argparse.Namespace, config: dict) -> int:
    _check_seed(args.seed)
    rows = size_table(
        ns=_parse_list(args.n, "--n", int),
        kinds=_parse_list(args.stat, "--stat", StatisticKind.parse),
        methods=_parse_list(args.method, "--method", CalibrationMethod.parse),
        alphas=_parse_alphas(args.alpha),
        reps=args.reps,
        master_seed=args.seed,
        threads=args.threads,
        limit_reps=args.limit_reps,
        limit_n_for_l=args.n_for_l,
        limit_grid=args.grid,
    )
    _write_text(args.out, _csv_text(config, size_table_csv(rows)))
    return 0


def _cmd_power_curve(args: argparse.Namespace, config: dict) -> int:
    _check_seed(args.seed)
    if args.beta_grid.strip() == "default":
        betas = beta_grid_default()
    else:
        betas = _parse_list(args.beta_grid, "--beta-grid", float)
    points = power_curve(
        n=args.n,
        betas=betas,
        kinds=_parse_list(args.stat, "--stat", StatisticKind.parse),
        alpha=args.alpha,
        reps_cal=args.cal_reps,
        reps_pow=args.pow_reps,
        master_seed=args.seed,
        threads=args.threads,
    )
    csv_text = _csv_text(config, power_curve_csv(points))
    # render before writing, so a figure that fails leaves no CSV behind
    svg_text = None if args.svg is None else svg_from_power_csv(csv_text)
    _write_text(args.out, csv_text)
    if svg_text is not None:
        _write_text(args.svg, svg_text)
    return 0


def _cmd_alr_limit(args: argparse.Namespace, config: dict) -> int:
    _check_seed(args.seed)
    variant = CalibrationMethod.parse(args.variant)
    if variant not in (CalibrationMethod.CAL1, CalibrationMethod.CAL2):
        raise ConfigError(f"--variant must be cal1 or cal2, got {args.variant!r}")
    alphas = _parse_alphas(args.alpha)
    for alpha in alphas:  # refuse any level before the first draw
        check_limit_request(variant, alpha, args.reps, args.n_for_l, args.grid)
    entries = []
    for alpha in alphas:
        log_cv = alr_limit_cv(
            variant,
            alpha,
            args.reps,
            args.seed,
            n_for_l=args.n_for_l,
            grid_size=args.grid,
            threads=args.threads,
        )
        entries.append({"alpha": alpha, "log_cv": log_cv, "cv": float(np.exp(log_cv))})
    is_cal2 = variant is CalibrationMethod.CAL2
    payload = {
        "version": __version__,
        "config": config,
        "variant": variant.value,
        "R": args.reps,
        "master_seed": args.seed,
        "n_for_l": args.n_for_l if is_cal2 else None,
        "grid": args.grid if is_cal2 else None,
        "entries": entries,
    }
    text = _json_text(payload)
    if args.out is not None:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=0, help="worker processes (0 = all cores)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemix",
        description="Sparse normal mixture detection statistics and calibration.",
    )
    parser.add_argument("--version", action="version", version=f"sparsemix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stat", help="evaluate statistics on a sample file")
    p.add_argument("--input", required=True, help="file of newline-delimited numbers")
    p.add_argument("--input-kind", choices=("pvalues", "observations"), default="pvalues")
    p.add_argument("--stat", choices=("hc", "bj", "alr", "all"), default="all")

    p = sub.add_parser("calibrate", help="simulate null critical values")
    p.add_argument("--stat", required=True, help="hc, bj, or alr")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--alpha", default="0.05", help="comma-separated levels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    _add_threads(p)

    p = sub.add_parser("size-table", help="realized null rejection rates")
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--stat", required=True, help="comma-separated statistics")
    p.add_argument("--method", required=True, help="comma-separated calibration methods")
    p.add_argument("--alpha", default="0.05,0.1", help="comma-separated levels")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--limit-reps", type=int, default=100_000,
                   help="replicates for cal1/cal2 limit-law sampling")
    p.add_argument("--n-for-l", type=int, default=100_000,
                   help="finite-n parameter of the cal2 bridge functional")
    p.add_argument("--grid", type=int, default=4096, help="cal2 bridge grid size")
    _add_threads(p)

    p = sub.add_parser("power-curve", help="calibrated power along a sparsity grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta-grid", default="default",
                   help='"default" or comma-separated beta values')
    p.add_argument("--stat", default="hc,bj,alr", help="comma-separated statistics")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--cal-reps", type=int, default=100_000)
    p.add_argument("--pow-reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional SVG figure path")
    _add_threads(p)

    p = sub.add_parser("alr-limit", help="ALR limit-law critical values")
    p.add_argument("--variant", required=True, help="cal1 or cal2")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--alpha", default="0.05", help="comma-separated levels")
    p.add_argument("--n-for-l", type=int, default=100_000)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    _add_threads(p)

    return parser


_COMMANDS = {
    "stat": _cmd_stat,
    "calibrate": _cmd_calibrate,
    "size-table": _cmd_size_table,
    "power-curve": _cmd_power_curve,
    "alr-limit": _cmd_alr_limit,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    config = _run_config(args)
    try:
        # one worker pool serves every simulation of the command; stat has none
        with engine.workers(vars(args).get("threads", 1)):
            return _COMMANDS[args.command](args, config)
    except SparsemixError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return IoError.exit_code


def entry() -> None:
    sys.exit(main())
