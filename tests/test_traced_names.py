"""The names the benchmark's tracer wraps stay in the package.

perfbench/tracer.py replaces package attributes by name and reports a name
it cannot find as an absent layer, which reads zero instead of failing.  A
rename that drops a layer shows here instead."""

import importlib
from pathlib import Path

from sparsemix import StatisticKind, engine, stats
from sparsemix.mixture import MixtureSpec, mixture_from

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
    # the tracer wraps engine._null_rows and engine._alt_rows as two layers
    # and counts out.shape[0] as rows, so each must return its `count` rows
    # and `_row_task` must look them up in the module globals: null
    # statistic rows through `_null_rows`, alternative rows (at eps = 0 too)
    # through `_alt_rows`, and level rows, which form no p-values, through
    # neither
    rows = {}
    for name in ("_null_rows", "_alt_rows"):
        sampler = getattr(engine, name)

        def counted(*args, _sampler=sampler, _name=name):
            out = _sampler(*args)
            assert out.shape == (args[5], 20)
            rows[_name] = rows.get(_name, 0) + out.shape[0]
            return out

        monkeypatch.setattr(engine, name, counted)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 7 * 40)  # 7-row blocks
    engine.null_statistics(40, 23, 5, threads=1)
    assert rows == {"_null_rows": 23}
    engine.alternative_grid([mixture_from(40, 0.6), MixtureSpec(40, 0.0, 0.0)], 23, 5,
                            first_sub=1, threads=1)
    assert rows == {"_null_rows": 23, "_alt_rows": 46}
    engine.null_levels(40, 23, 5, {StatisticKind.HC: [1.0, 2.5], StatisticKind.BJ: [2.0]},
                       threads=1)
    assert rows == {"_null_rows": 23, "_alt_rows": 46}
