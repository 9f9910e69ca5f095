"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke cases run every workload at tiny replicate counts through the same
command the benchmark is run with, in both modes, so they exercise the
workloads, the tracer and the correctness check end to end (~1 minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from tracer import ENTRY_POINTS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_timed(name):
    out = _bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0",
                 "--smoke")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name):
    out = _bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1",
                 "--smoke")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.layers_absent"] == 0
    # each layer is stressed by one workload and bypassed by another
    assert (metrics["engine.alt_rows.self_s"] > 0) == (name == "power-curve")
    assert (metrics["calibration.ln_rows.self_s"] > 0) == (name == "alr-limit")
    assert (metrics["stats.row_stats.self_s"] > 0) == (name != "alr-limit")
    assert metrics["engine.map_tasks.tasks"] > 0
    assert metrics["stats.kernel.alr.us_per_row.n1000"] > 0
    assert 0 < metrics["trace.overhead_s"] < metrics["trace.wall_s"]


def _tampering_spawn(edit, runs):
    """run.spawn that applies `edit` to the CSV of the runs numbered in `runs`."""
    real = run.spawn
    calls = []

    def spawn(spec, deadline):
        result = real(spec, deadline)
        if spec["mode"] == "run":
            calls.append(spec)
            if len(calls) in runs:
                path = Path(spec["commands"][0][spec["commands"][0].index("--out") + 1])
                path.write_text(edit(path.read_text()))
        return result

    return spawn


def _nudge_first_size(text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("100,"))
    fields = lines[i].split(",")
    fields[4] = format(float(fields[4]) + 1e-4, ".6g")
    lines[i] = ",".join(fields)
    return "".join(lines)


def _out_of_band(text: str) -> str:
    """A size far outside its Monte Carlo band."""
    return text.replace("100,hc,evi,0.05,0.", "100,hc,evi,0.05,0.9", 1)


@pytest.mark.parametrize("edit", [
    _out_of_band,
    # a change inside the band that only the byte comparison catches
    _nudge_first_size,
], ids=["out-of-band", "body-differs"])
def test_tampered_body_raises_fail_frac(monkeypatch, edit):
    monkeypatch.setattr(run, "spawn", _tampering_spawn(edit, {2}))
    tally, metrics = _timed_size_table(2)
    assert tally.attempted == 2 and tally.failed == 1, tally.reasons
    assert metrics["ok_frac"][0] == 0.5


def test_no_passing_run_gives_no_metrics(monkeypatch):
    monkeypatch.setattr(run, "spawn", _tampering_spawn(_out_of_band, {1, 2}))
    tally, metrics = _timed_size_table(2)
    assert tally.attempted == 2 and tally.failed == 2, tally.reasons
    assert metrics is None


def _timed_size_table(min_reps):
    workload = WORKLOADS["size-table"]
    tally = run.Tally()
    try:
        metrics = run.timed(workload, workload.smoke, 7, 0.0, min_reps,
                            run.load_reference(workload.name), tally, run.Deadline())
    finally:
        shutil.rmtree(run.OUT, ignore_errors=True)
    return tally, metrics


def test_tracer_reports_missing_entry_points_as_absent():
    sys.path.insert(0, str(BENCH.parent / "src"))
    from sparsemix import engine

    original = engine._null_rows
    tracer = Tracer(ENTRY_POINTS + (
        ("engine.null_rows", "sparsemix.engine", "_renamed_null_rows", None),
        ("rng", "sparsemix.no_such_module", "f", None),
    ))
    tracer.install()
    try:
        assert engine._null_rows is not original
        engine.null_statistics(100, 3, 5, threads=1)
    finally:
        tracer.uninstall()
    assert engine._null_rows is original
    assert tracer.absent == ["sparsemix.engine._renamed_null_rows",
                             "sparsemix.no_such_module.f"]
    metrics = tracer.metrics()
    assert metrics["engine.null_rows.rows"][0] == 3
    assert metrics["rng.streams"][0] == 3
    assert metrics["trace.layers_absent"][0] == 2


@pytest.mark.parametrize("kind,text", [
    ("csv", "n,kind\n"),
    ("csv", "# sparsemix 0.1.0\nn,kind,method,alpha,size,R,seed\n"),
    ("csv", "# sparsemix 0.1.0\nn,kind,method,alpha,size,R,seed\n100,hc,evi,0.05,nan,10,7\n"),
    ("csv", "# sparsemix 0.1.0\nn,kind,method,alpha,size,R,seed\n100,hc,evi,0.05,0.1,0,7\n"),
    ("json", '{"config": {}, "variant": "cal1"}'),
    ("json", "[]"),
    ("svg", "<svg xmlns='http://www.w3.org/2000/svg'></svg>"),
])
def test_malformed_artifacts_are_rejected(tmp_path, kind, text):
    path = tmp_path / f"a.{kind}"
    path.write_text(text)
    with pytest.raises(checks.Malformed):
        checks.read_artifact(kind, str(path), 7)
    with pytest.raises(checks.Malformed):
        checks.read_artifact(kind, str(tmp_path / "missing"), 7)
