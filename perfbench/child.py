"""One fresh interpreter of the benchmark: import sparsemix, then do one job.

    python3 perfbench/child.py ROOT SPEC_JSON

ROOT is the checkout whose `src/` is imported.  SPEC_JSON is one of

    {"mode": "setup"}
    {"mode": "run", "commands": [[argv...], ...], "trace": false}
    {"mode": "kernels", "seed": 1, "budget_s": 0.3}

The last stdout line is a JSON object.  Every mode reports `imported`, the
CLOCK_MONOTONIC time at which `sparsemix.cli` finished importing; the parent
subtracts its own clock reading taken before the spawn to get set-up time.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run(cli, commands: list[list[str]], trace: bool) -> dict:
    """Run the CLI commands in sequence; time them and read rusage deltas."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    codes = [cli.main(list(argv)) for argv in commands]
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "codes": codes,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.calibrate()
        result["layers"] = {k: v for k, (v, _) in tracer.metrics().items()}
        result["absent"] = tracer.absent
    return result


KERNEL_SIZES = (100, 1000, 10000)
KERNEL_KINDS = ("hc", "bj", "alr")
KERNEL_KEYS = [f"stats.kernel.{k}.us_per_row.n{n}" for n in KERNEL_SIZES for k in KERNEL_KINDS]
KERNEL_ELEMENTS = 1_000_000  # rows * n per input matrix (8 MB)


def kernels(seed: int, budget_s: float) -> dict:
    """Median microseconds per row of `_row_stats` with one statistic kind.

    Inputs are fixed sorted clamped uniform matrices drawn from `seed`.
    """
    import numpy as np

    from sparsemix import stats

    row_stats = getattr(stats, "_row_stats", None)
    if row_stats is None:
        print("kernels: absent sparsemix.stats._row_stats", file=sys.stderr)
        return {"kernels": {}, "absent": ["sparsemix.stats._row_stats"]}
    out: dict[str, float] = {}
    rng = np.random.default_rng(seed)
    for n in KERNEL_SIZES:
        rows = KERNEL_ELEMENTS // n
        p = np.sort(np.clip(rng.random((rows, n)), stats.P_MIN, stats.P_MAX), axis=1)
        for name in KERNEL_KINDS:
            kinds = (stats.StatisticKind(name),)
            row_stats(p, n, kinds)  # warm up
            times = []
            deadline = time.perf_counter() + budget_s
            while len(times) < 5 or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                row_stats(p, n, kinds)
                times.append(time.perf_counter() - t0)
            out[f"stats.kernel.{name}.us_per_row.n{n}"] = (
                statistics.median(times) / rows * 1e6)
    return {"kernels": out, "absent": []}


def main() -> None:
    root = Path(sys.argv[1]).resolve()
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, str(root / "src"))
    from sparsemix import cli

    imported = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"child: imported {cli.__file__}, not the checkout's src/")
    mode = spec["mode"]
    if mode == "setup":
        result = {}
    elif mode == "run":
        result = run(cli, spec["commands"], spec.get("trace", False))
    elif mode == "kernels":
        result = kernels(spec["seed"], spec["budget_s"])
    else:
        sys.exit(f"child: unknown mode {mode!r}")
    result["imported"] = imported
    print(json.dumps(result))


if __name__ == "__main__":
    main()
