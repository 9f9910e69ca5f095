"""The sparsemix benchmark.

    python3 perfbench/run.py --workload size-table --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` it repeats the workload, each time in a fresh interpreter at
`--threads 2`, until `--seconds` have passed, and reports end-to-end metrics
as medians over the runs whose commands all passed.  With `--trace 1` it makes
one run at `--threads 2`, one traced in-process run at `--threads 1`, and the
`_row_stats` kernel micro-benchmarks, and reports per-layer metrics.  Every
run's artifacts are checked (see checks.py).  The last stdout line is one JSON
object; a readable table goes to stderr.  If no run yields metrics, it exits
with code 1 and prints no result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from child import KERNEL_KEYS
from tracer import Tracer
from workloads import WORKLOADS, Command, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

THREADS = 2  # the machine's core count, passed explicitly, never 0
MIN_REPS = 3  # timed runs per benchmark run, even past --seconds
HARD_LIMIT_S = 170.0  # every child is killed by then
KERNEL_BUDGET_S = 0.3  # per kernel micro-benchmark


@dataclass
class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)
        print(f"perfbench: FAIL {reason}", file=sys.stderr)


class Deadline:
    def __init__(self) -> None:
        self.start = time.monotonic()

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)


def spawn(spec: dict, deadline: Deadline) -> tuple[dict | None, float]:
    """Run child.py in a fresh interpreter; (its JSON result or None, set-up s).

    The child gets its own session so that on timeout its pool workers are
    killed with it.
    """
    began = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(ROOT), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline.left()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: child timed out", file=sys.stderr)
        return None, 0.0
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: child exited with {proc.returncode}", file=sys.stderr)
        return None, 0.0
    result = json.loads(lines[-1])
    return result, result["imported"] - began


@dataclass
class Rep:
    """One fresh-interpreter run of a workload's commands."""

    result: dict | None
    setup_s: float
    passed: bool  # every command exited 0 and passed its checks


def run_rep(
    workload: Workload,
    reps: dict[str, int],
    seed: int,
    threads: int,
    trace: bool,
    reference: list[dict],
    expected: list[tuple[str, ...]],
    tally: Tally,
    deadline: Deadline,
) -> Rep:
    """Run the workload once and check every command's artifacts.

    `reference` holds the reference cells of each command.  `expected` holds
    the bodies of the first run of this seed, one tuple per command; the
    first run fills it and later runs are compared against it.
    """
    outdir = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    commands = workload.build(reps, str(outdir))
    argvs = [c.argv + ["--seed", str(seed), "--threads", str(threads)] for c in commands]
    result, setup_s = spawn({"mode": "run", "commands": argvs, "trace": trace}, deadline)
    failed_before = tally.failed
    bodies = []
    for i, command in enumerate(commands):
        tally.attempted += 1
        label = f"{workload.name} {command.argv[:3]} threads={threads} trace={trace}"
        code = None if result is None else result["codes"][i]
        body = ()
        if code != 0:
            tally.fail(f"{label}: exit code {code}")
        else:
            body = check_command(command, seed, reference[i], label, tally)
        if body and expected and expected[i] and body != expected[i]:
            tally.fail(f"{label}: body differs from the first run of seed {seed}")
        bodies.append(body)
    shutil.rmtree(outdir, ignore_errors=True)
    if not expected:
        expected.extend(bodies)
    return Rep(result, setup_s, result is not None and tally.failed == failed_before)


def check_command(
    command: Command, seed: int, reference: dict, label: str, tally: Tally
) -> tuple[str, ...]:
    """Bodies of the command's artifacts, or () after recording a failure."""
    bodies, cells = [], {}
    try:
        for kind, path in command.artifacts:
            body, found = checks.read_artifact(kind, path, seed)
            bodies.append(body)
            cells.update(found)
    except checks.Malformed as exc:
        tally.fail(f"{label}: {exc}")
        return ()
    failures = checks.band_failures(cells, reference)
    if failures:
        tally.fail(f"{label}: " + "; ".join(failures[:3]))
        return ()
    return tuple(bodies)


def timed(workload: Workload, reps: dict, seed: int, seconds: float, min_reps: int,
          reference: list[dict], tally: Tally, deadline: Deadline) -> dict | None:
    """End-to-end metrics: medians over fresh-interpreter runs at THREADS.

    Only runs whose commands all passed count; None if there is none.
    """
    runs: list[Rep] = []
    expected: list[tuple[str, ...]] = []
    start = time.monotonic()
    last = 0.0
    while len(runs) < min_reps or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        runs.append(run_rep(workload, reps, seed, THREADS, False, reference,
                            expected, tally, deadline))
        last = time.monotonic() - began
        if runs[-1].result is None or deadline.left() < last:
            break
    ok = [r for r in runs if r.passed]
    walls = " ".join(f"{r.result['wall_s']:.3f}" for r in ok)
    print(f"perfbench: {len(ok)} of {len(runs)} timed runs passed; their wall_s: "
          f"{walls}", file=sys.stderr)
    if not ok:
        return None
    rows = workload.rows(reps)
    return {
        "setup_s": (statistics.median(r.setup_s for r in ok), "s"),
        "wall_s": (statistics.median(r.result["wall_s"] for r in ok), "s"),
        "rows_per_s": (statistics.median(rows / r.result["wall_s"] for r in ok), "1/s"),
        "cpu_s": (statistics.median(r.result["cpu_s"] for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r.result["peak_rss_mb"] for r in ok), "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / max(tally.attempted, 1), "ratio"),
    }


def traced(workload: Workload, reps: dict, seed: int, kernel_budget: float,
           reference: list[dict], tally: Tally, deadline: Deadline) -> dict | None:
    """Per-layer metrics from one traced in-process run, plus kernel timings.

    The traced `--threads 1` run must write the same artifact bodies as the
    `--threads 2` run.  None if the traced run or the kernels did not report.
    """
    expected: list[tuple[str, ...]] = []
    run_rep(workload, reps, seed, THREADS, False, reference, expected, tally, deadline)
    trace = run_rep(workload, reps, seed, 1, True, reference, expected, tally, deadline)
    kernels, _ = spawn({"mode": "kernels", "seed": seed, "budget_s": kernel_budget},
                       deadline)
    if trace.result is None or kernels is None:
        return None
    metrics = Tracer().metrics()  # every name, reading zero until measured
    for name, value in trace.result["layers"].items():
        metrics[name] = (value, metrics[name][1])
    for name in KERNEL_KEYS:
        metrics[name] = (kernels["kernels"].get(name, 0.0), "us")
    absent = len(trace.result["absent"]) + len(kernels["absent"])
    metrics["trace.layers_absent"] = (absent, "count")
    metrics["trace.wall_s"] = (trace.result["wall_s"], "s")
    return metrics


def load_reference(name: str) -> list[dict]:
    """Reference cells of each of the workload's commands."""
    return json.loads(REFERENCE.read_text())["workloads"][name]


def machine() -> dict:
    """Where the numbers were taken; printed with every run."""
    import importlib.metadata as md

    def version(pkg: str) -> str:
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny replicate counts, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparsemix" / "cli.py").is_file():
        print(f"perfbench: no sparsemix package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reps = workload.smoke if args.smoke else workload.full
    reference = load_reference(workload.name)
    print(f"perfbench: machine {json.dumps(machine())}", file=sys.stderr)
    for command in workload.build(reps, str(OUT)):
        print(f"perfbench: command {' '.join(command.argv)}", file=sys.stderr)
    print(f"perfbench: {workload.rows(reps)} replicate rows per run", file=sys.stderr)
    deadline = Deadline()
    warm, _ = spawn({"mode": "setup"}, deadline)  # compiles bytecode, untimed
    if warm is None:
        print("perfbench: cannot import sparsemix from src/", file=sys.stderr)
        return 3
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(workload, reps, args.seed,
                             0.02 if args.smoke else KERNEL_BUDGET_S,
                             reference, tally, deadline)
        else:
            metrics = timed(workload, reps, args.seed, args.seconds,
                            2 if args.smoke else MIN_REPS, reference, tally, deadline)
    finally:
        try:
            OUT.rmdir()  # only once empty: other runs may share the checkout
        except OSError:
            pass
    if metrics is None:
        print(f"perfbench: no run of {workload.name} passed; no result", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
