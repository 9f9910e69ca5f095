"""Outside-in span tracer for the sparsemix layers.

The tracer replaces module attributes of the package with timing wrappers, so
the package source stays untouched.  Each wrapper opens a span around the
call; per layer it aggregates calls, rows handled, total time and self time
(the span's time minus the time of the spans opened inside it).  Time spent
in a function that is not wrapped is charged to its nearest wrapped caller.

Wrappers are only valid for an in-process run (`--threads 1`): a process pool
would run the unwrapped functions in its workers and the spans would be lost.

An entry point that no longer exists (renamed or deleted by a refactor) is
reported as absent and its layer reads zero; the run goes on.

The tracing overhead is estimated from the tracer itself: the number of
wrapped calls times what one wrapper adds to a call, timed on a no-op.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    rows: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0
    misses: int = 0
    # sum over calls of 2 * ceil(tasks / 2): task slots of two workers
    slots: int = 0


def _rows_of_matrix(out) -> int:
    return int(out.shape[0])


def _rows_of_stats(out) -> int:
    return int(len(next(iter(out.values()))))


# (layer, module, attribute path, rows of the result or None).  Names are
# looked up where the caller looks them up: engine calls `_row_stats` through
# its own module globals, and cli imported the experiments and plots
# functions by name.
ENTRY_POINTS = (
    ("cli", "sparsemix.cli", "main", None),
    ("experiments", "sparsemix.cli", "size_table", None),
    ("experiments", "sparsemix.cli", "power_curve", None),
    ("experiments", "sparsemix.cli", "size_table_csv", None),
    ("experiments", "sparsemix.cli", "power_curve_csv", None),
    ("plots", "sparsemix.cli", "svg_from_power_csv", None),
    ("engine.null_cache", "sparsemix.engine", "null_statistics", None),
    ("engine.map_tasks", "sparsemix.engine", "map_tasks", len),
    ("engine.null_rows", "sparsemix.engine", "_null_rows", _rows_of_matrix),
    ("engine.alt_rows", "sparsemix.engine", "_alt_rows", _rows_of_matrix),
    ("stats.row_stats", "sparsemix.engine", "_row_stats", _rows_of_stats),
    ("rng", "sparsemix.rng", "RandomStream.generator", None),
    ("calibration.limit_cache", "sparsemix.calibration", "_limit_draws", None),
    ("calibration.limit_task", "sparsemix.calibration", "_cal1_task", None),
    ("calibration.limit_task", "sparsemix.calibration", "_cal2_task", None),
    ("calibration.cal1_rows", "sparsemix.calibration", "_cal1_rows", None),
    ("calibration.ln_rows", "sparsemix.calibration", "_ln_rows", _rows_of_matrix),
)

# A call into a cache layer is a miss when it reached map_tasks.
CACHE_LAYERS = ("engine.null_cache", "calibration.limit_cache")


def _resolve(module: str, path: str):
    """(owner, attribute) for module.path, or None if any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.layers = {layer: LayerStats() for layer, *_ in entry_points}
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.per_call_s = 0.0  # set by calibrate()

    def install(self) -> None:
        for layer, module, path, rows in self.entry_points:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(layer, original, rows))
            self._undo.append((owner, attr, original))
            self.wrapped.append(f"{module}.{path}")
        print(f"tracer: wrapped {', '.join(self.wrapped)}", file=sys.stderr)
        if self.absent:
            print(f"tracer: absent {', '.join(self.absent)}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def calibrate(self) -> None:
        """Time what one wrapper adds to a call (median over 7 trials)."""
        calls = 20_000

        def noop():
            return None

        wrapped = Tracer((("noop", "", "", None),))._wrap("noop", noop, None)
        clock = time.perf_counter
        extra = []
        for _ in range(7):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            extra.append((clock() - t1) - (t1 - t0))
        self.per_call_s = max(statistics.median(extra) / calls, 0.0)

    def _wrap(self, layer: str, fn, rows):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter
        probe = self.layers.get("engine.map_tasks") if layer in CACHE_LAYERS else None
        is_pool = layer == "engine.map_tasks"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe.calls if probe is not None else 0
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += spent
                stats.calls += 1
                stats.total_s += spent
                stats.self_s += spent - inner
            if rows is not None:
                n = rows(out)
                stats.rows += n
                if is_pool:
                    stats.slots += 2 * math.ceil(n / 2)
            if probe is not None:
                if probe.calls > before:
                    stats.misses += 1
                else:
                    stats.hits += 1
            return out

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        L = self.layers
        out: dict[str, tuple[float, str]] = {}
        out["rng.streams"] = (L["rng"].calls, "count")
        out["rng.self_s"] = (L["rng"].self_s, "s")
        out["rng.us_per_stream"] = (_per(L["rng"].self_s, L["rng"].calls), "us")
        for layer in ("engine.null_rows", "engine.alt_rows", "stats.row_stats",
                      "calibration.ln_rows"):
            s = L[layer]
            out[f"{layer}.rows"] = (s.rows, "count")
            out[f"{layer}.self_s"] = (s.self_s, "s")
            out[f"{layer}.us_per_row"] = (_per(s.self_s, s.rows), "us")
        for layer in ("calibration.limit_task", "calibration.cal1_rows"):
            out[f"{layer}.self_s"] = (L[layer].self_s, "s")
        out["calibration.limit_draws.self_s"] = (L["calibration.limit_cache"].self_s, "s")
        pool = L["engine.map_tasks"]
        out["engine.map_tasks.calls"] = (pool.calls, "count")
        out["engine.map_tasks.tasks"] = (pool.rows, "count")
        out["engine.map_tasks.round_eff"] = (
            pool.rows / pool.slots if pool.slots else 0.0, "ratio")
        for layer in CACHE_LAYERS:
            out[f"{layer}.hits"] = (L[layer].hits, "count")
            out[f"{layer}.misses"] = (L[layer].misses, "count")
        out["experiments.self_s"] = (L["experiments"].self_s, "s")
        out["plots.svg_s"] = (L["plots"].total_s, "s")
        out["cli.self_s"] = (L["cli"].self_s, "s")
        out["trace.layers_absent"] = (len(self.absent), "count")
        calls = sum(s.calls for s in L.values())
        out["trace.overhead_s"] = (calls * self.per_call_s, "s")
        return out


def _per(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0
