"""Print one sha256 per CLI artifact body, and the simulations each
command makes, to compare two checkouts.

Runs the CLI matrix below at every seed and `--threads` value asked for,
each command in a fresh interpreter on the `src/` of the checkout given, and
prints one line per artifact file:

    <sha256 of the body>  seed=<seed> threads=<threads> <file>

then one line per command, named by its `--out` file, with the sorted
multiset of its `engine.simulate` calls, each as task:parameter tuples:rows:

    simulate=<task>:<tuples>:<rows>,...  seed=<seed> threads=<threads> <file>

The body is the file without its run configuration: a CSV loses its
`# config` line and a JSON its "config" key (which hold the output paths and
`--threads`); an SVG is hashed whole.  Bodies of equal lines are
byte-identical, and the simulations do not depend on `--threads`, so two
checkouts compare with one `diff`:

    python tools/artifact_bodies.py --src PARENT/src > parent.txt
    python tools/artifact_bodies.py --src src > change.txt
    diff parent.txt change.txt

The default matrix takes about two minutes a checkout on two cores; `--scale` multiplies
every replicate count (with floors that keep each command valid) and
`--grid` sets the cal2 bridge grid, for a quick run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# floors of the scaled replicate counts: reps * alpha >= 5 at alpha 0.05 for
# an empirical critical value, the limit law's 10000 replicates, and a few
# power rows a grid point
MC, LIMIT, POWER = 200, 10_000, 20

# Runs the CLI on argv[2:] with engine.simulate counted, and writes the
# sorted calls to the file argv[1].
COUNTED_CLI = """
import sys
from pathlib import Path
from sparsemix import cli, engine

calls, simulate = [], engine.simulate

def counted(task, params, total, threads):
    calls.append(f"{task.__name__}:{len(params)}:{total}")
    return simulate(task, params, total, threads)

engine.simulate = counted
code = cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(",".join(sorted(calls)))
sys.exit(code)
"""


def matrix(scale: float, grid: int) -> list[list[str]]:
    """The commands, each writing its artifacts into the current directory."""

    def reps(count: int, floor: int) -> str:
        return str(max(floor, round(count * scale)))

    calibrate = ["calibrate", "--n", "1000", "--alpha", "0.05,0.1", "--reps", reps(20_000, MC)]
    return [
        [*calibrate, "--stat", "bj", "--out", "calibrate.json"],
        [*calibrate, "--stat", "hc", "--out", "calibrate-hc.json"],
        [*calibrate, "--stat", "alr", "--out", "calibrate-alr.json"],
        ["size-table", "--n", "100,1000", "--stat", "hc,bj",
         "--method", "thresh,evi,evii,empirical", "--alpha", "0.05,0.1",
         "--reps", reps(20_000, MC), "--out", "size-hc-bj.csv"],
        ["size-table", "--n", "100,1000", "--stat", "hc,bj", "--method", "thresh,evi,evii",
         "--alpha", "0.05,0.1", "--reps", reps(20_000, MC), "--out", "size-closed.csv"],
        ["size-table", "--n", "100", "--stat", "bj", "--method", "thresh,evi,evii",
         "--alpha", "0.9", "--reps", reps(20_000, MC), "--out", "size-bj-alpha-0.9.csv"],
        ["size-table", "--n", "1000", "--stat", "alr", "--method", "empirical,cal1,cal2",
         "--alpha", "0.05", "--reps", reps(20_000, MC), "--limit-reps", reps(20_000, LIMIT),
         "--grid", str(grid), "--out", "size-alr.csv"],
        # one draw of each limit law serves several n and levels
        ["size-table", "--n", "100,1000", "--stat", "alr", "--method", "empirical,cal1,cal2",
         "--alpha", "0.05,0.1", "--reps", reps(20_000, MC), "--limit-reps", reps(20_000, LIMIT),
         "--grid", str(grid), "--out", "size-alr-2n.csv"],
        ["power-curve", "--n", "1000", "--stat", "hc,bj,alr", "--alpha", "0.05",
         "--cal-reps", reps(10_000, MC), "--pow-reps", reps(2000, POWER),
         "--out", "power-1e3.csv", "--svg", "power-1e3.svg"],
        ["power-curve", "--n", "10000", "--stat", "hc,bj,alr", "--alpha", "0.05",
         "--cal-reps", reps(4000, MC), "--pow-reps", reps(400, POWER),
         "--out", "power-1e4.csv", "--svg", "power-1e4.svg"],
        ["alr-limit", "--variant", "cal1", "--alpha", "0.05,0.1",
         "--reps", reps(200_000, LIMIT), "--out", "cal1.json"],
        ["alr-limit", "--variant", "cal2", "--alpha", "0.05,0.1",
         "--reps", reps(20_000, LIMIT), "--grid", str(grid), "--out", "cal2.json"],
    ]


def body(path: Path) -> bytes:
    """The artifact without its run configuration."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.pop("config", None)
        return json.dumps(payload, sort_keys=True, indent=2).encode()
    if path.suffix == ".csv":
        lines = path.read_text().splitlines(keepends=True)
        return "".join(x for x in lines if not x.startswith("# config ")).encode()
    return path.read_bytes()


def run(src: Path, seed: int, threads: int, commands: list[list[str]]) -> list[str]:
    """Hash lines of every artifact of `commands` at one seed and thread
    count, then one line of simulations a command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    where = f"seed={seed} threads={threads}"
    lines, simulations = [], []
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as log:
        calls = Path(log) / "calls"
        for argv in commands:
            argv = [*argv, "--seed", str(seed), "--threads", str(threads)]
            done = subprocess.run([sys.executable, "-c", COUNTED_CLI, str(calls), *argv],
                                  cwd=tmp, env=env, capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"sparsemix {' '.join(argv)}: exit {done.returncode}\n{done.stderr}")
            out = argv[argv.index("--out") + 1]
            simulations.append(f"simulate={calls.read_text()}  {where} {out}")
        for path in sorted(Path(tmp).iterdir()):
            digest = hashlib.sha256(body(path)).hexdigest()
            lines.append(f"{digest}  {where} {path.name}")
    return lines + simulations


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="the checkout's src/ directory (default: this one's)")
    p.add_argument("--seeds", type=_ints, default=[5, 1729])
    p.add_argument("--threads", type=_ints, default=[1, 2, 0])
    p.add_argument("--scale", type=float, default=1.0, help="replicate count multiplier")
    p.add_argument("--grid", type=int, default=4096, help="cal2 bridge grid size")
    args = p.parse_args(argv)
    commands = matrix(args.scale, args.grid)
    for seed in args.seeds:
        for threads in args.threads:
            print("\n".join(run(args.src.resolve(), seed, threads, commands)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
