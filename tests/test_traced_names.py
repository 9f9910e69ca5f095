"""The names the benchmark's tracer wraps stay in the package.

perfbench/tracer.py replaces package attributes by name and reports a name
it cannot find as an absent layer, which reads zero instead of failing.  A
rename that drops a layer shows here instead."""

import importlib
from pathlib import Path

from sparsemix import stats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{module}.{path}"
        for _, module, path, _ in tracer.ENTRY_POINTS
        if tracer._resolve(module, path) is None
    ]
    assert missing == []


def test_kernel_timer_entry_point_exists():
    # perfbench/child.py times the statistic kernels through this name
    assert callable(getattr(stats, "_row_stats", None))
