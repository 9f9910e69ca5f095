"""The benchmark's workloads: fixed sparsemix CLI commands and their row counts.

Each workload is a list of CLI commands that one fresh interpreter runs in
sequence.  The seed and thread count are appended to every command by the
runner, so the argv below is everything else.  Replicate counts are fixed,
which makes wall time the time to a result of stated Monte Carlo accuracy.
`smoke` holds tiny replicate counts for the benchmark's own tests.  README.md
says why each workload is there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: list[str]
    # (kind, path) of every file the command writes; kind is csv, json or svg
    artifacts: list[tuple[str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict[str, int]
    smoke: dict[str, int]
    build: Callable[[dict[str, int], str], list[Command]]
    rows: Callable[[dict[str, int]], int]


def _size_table(reps: dict[str, int], out: str) -> list[Command]:
    csv = f"{out}/sizes.csv"
    argv = [
        "size-table", "--n", "100,1000", "--stat", "hc,bj",
        "--method", "thresh,evi,evii", "--alpha", "0.05,0.1",
        "--reps", str(reps["reps"]), "--out", csv,
    ]
    return [Command(argv, [("csv", csv)])]


def _power_curve(reps: dict[str, int], out: str) -> list[Command]:
    csv, svg = f"{out}/power.csv", f"{out}/power.svg"
    argv = [
        "power-curve", "--n", "10000", "--stat", "hc,bj,alr", "--alpha", "0.05",
        "--cal-reps", str(reps["cal_reps"]), "--pow-reps", str(reps["pow_reps"]),
        "--out", csv, "--svg", svg,
    ]
    return [Command(argv, [("csv", csv), ("svg", svg)])]


def _alr_limit(reps: dict[str, int], out: str) -> list[Command]:
    cal1, cal2 = f"{out}/cal1.json", f"{out}/cal2.json"
    return [
        Command(
            ["alr-limit", "--variant", "cal1", "--reps", str(reps["cal1_reps"]),
             "--alpha", "0.05,0.1", "--out", cal1],
            [("json", cal1)],
        ),
        Command(
            ["alr-limit", "--variant", "cal2", "--reps", str(reps["cal2_reps"]),
             "--grid", "4096", "--n-for-l", "100000", "--alpha", "0.05,0.1",
             "--out", cal2],
            [("json", cal2)],
        ),
    ]


BETAS = 10  # the default beta grid 0.55, 0.60, ..., 1.00

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="size-table",
            full={"reps": 100_000},
            smoke={"reps": 2_000},
            build=_size_table,
            rows=lambda r: 2 * r["reps"],
        ),
        Workload(
            name="power-curve",
            full={"cal_reps": 10_000, "pow_reps": 1_000},
            smoke={"cal_reps": 1_000, "pow_reps": 100},
            build=_power_curve,
            rows=lambda r: r["cal_reps"] + BETAS * r["pow_reps"],
        ),
        Workload(
            name="alr-limit",
            full={"cal1_reps": 200_000, "cal2_reps": 20_000},
            smoke={"cal1_reps": 10_000, "cal2_reps": 10_000},
            build=_alr_limit,
            rows=lambda r: r["cal1_reps"] + r["cal2_reps"],
        ),
    )
}
