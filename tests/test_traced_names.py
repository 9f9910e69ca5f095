"""The names the benchmark's tracer wraps stay in the package.

perfbench/tracer.py replaces package attributes by name and reports a name
it cannot find as an absent layer, which reads zero instead of failing.  A
rename that drops a layer shows here instead."""

import importlib
from pathlib import Path

from sparsemix import StatisticKind, engine, stats
from sparsemix.mixture import mixture_from

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


def test_tasks_draw_their_rows_through_the_traced_samplers(monkeypatch):
    # the tracer wraps engine._null_rows and engine._alt_rows and counts
    # out.shape[0] as rows, so each must return its `count` rows and the
    # tasks must look them up in the module globals
    spec = mixture_from(40, 0.6)
    rows = {}
    for name in ("_null_rows", "_alt_rows"):
        sampler = getattr(engine, name)

        def counted(*args, _sampler=sampler, _name=name, **kwargs):
            out = _sampler(*args, **kwargs)
            assert out.shape == (args[-1], 20)
            rows[_name] = rows.get(_name, 0) + out.shape[0]
            return out

        monkeypatch.setattr(engine, name, counted)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * 40)  # 7-row blocks
    kinds = tuple(StatisticKind)
    engine._null_task((40, 5, kinds, 3, 23))
    engine._alt_task((40, spec.eps, spec.mu, 5, 1, kinds, 3, 23))
    assert rows == {"_null_rows": 23, "_alt_rows": 23}
