"""Record the reference values that the benchmark's correctness band uses.

    python3 perfbench/make_reference.py

Runs every workload at full size once per seed in SEEDS, at `--threads 2`,
and writes reference.json: for each command's cells (realized sizes, powers,
log critical values) the mean and standard deviation across seeds, together
with the machine they were recorded on.  The reference seeds are kept apart
from the seeds used to run the benchmark, so that a benchmark run at any seed
is a fresh draw from the recorded distribution.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

import checks
import run
from workloads import WORKLOADS


SEEDS = range(1001, 1011)


def record(name: str) -> list[dict]:
    workload = WORKLOADS[name]
    values: list[dict[str, list[float]]] = []
    reps_of: dict[str, int] = {}
    for seed in SEEDS:
        outdir = run.OUT / f"reference-{name}"
        outdir.mkdir(parents=True, exist_ok=True)
        commands = workload.build(workload.full, str(outdir))
        argvs = [c.argv + ["--seed", str(seed), "--threads", str(run.THREADS)]
                 for c in commands]
        result, _ = run.spawn({"mode": "run", "commands": argvs}, run.Deadline())
        if result is None or any(result["codes"]):
            sys.exit(f"make_reference: {name} failed at seed {seed}")
        for i, command in enumerate(commands):
            if len(values) <= i:
                values.append({})
            for kind, path in command.artifacts:
                _, cells = checks.read_artifact(kind, path, seed)
                for key, (x, reps) in cells.items():
                    values[i].setdefault(key, []).append(x)
                    reps_of[key] = reps
        shutil.rmtree(outdir)
        print(f"make_reference: {name} seed {seed} wall {result['wall_s']:.2f} s",
              file=sys.stderr)
    return [
        {
            key: {"mean": statistics.fmean(xs), "sd": statistics.stdev(xs),
                  "R": reps_of[key]}
            for key, xs in sorted(cells.items())
        }
        for cells in values
    ]


def main() -> None:
    doc = {
        "machine": run.machine(),
        "workloads": {name: record(name) for name in WORKLOADS},
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
