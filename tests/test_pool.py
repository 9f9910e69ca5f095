"""The worker pool: one per command, a typed error when a worker dies, and
no output and no live worker after an error or an interrupt."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from sparsemix import StatisticKind, WorkerLost
from sparsemix import engine
from sparsemix.cli import main

_ALL = (StatisticKind.HC, StatisticKind.BJ, StatisticKind.ALR)

# two grid points, and at --threads 2 two tasks for the null and for each point
_POWER = ["power-curve", "--n", "32", "--beta-grid", "0.6,0.8", "--stat", "hc,bj",
          "--cal-reps", "200", "--pow-reps", "50", "--seed", "0", "--threads", "2"]


@pytest.fixture()
def deadline():
    """Fail a test that is still running after 30 s instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def pools(monkeypatch):
    """Every process pool the engine constructs, in order."""
    made = []

    class Counted(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Counted)
    return made


def _kill_own_worker(args):
    if multiprocessing.parent_process() is None:
        raise RuntimeError("not in a worker process")
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt(args):
    raise KeyboardInterrupt


def _power_argv(tmp_path):
    return [*_POWER, "--out", str(tmp_path / "p.csv"), "--svg", str(tmp_path / "p.svg")]


def test_maps_inside_one_workers_block_share_one_pool(pools):
    tasks = [(20, 1, _ALL, s, 5) for s in range(0, 20, 5)]
    with engine.workers(2):
        first = engine.map_tasks(engine._null_task, tasks, 2)
        again = engine.map_tasks(engine._null_task, tasks, 2)
    assert len(pools) == 1
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert multiprocessing.active_children() == []
    with engine.workers(1):  # one worker runs in this process: no pool
        engine.map_tasks(engine._null_task, tasks, 1)
    engine.map_tasks(engine._null_task, tasks, 2)  # no block open: a pool of its own
    assert len(pools) == 2


def test_a_killed_worker_raises_worker_lost(deadline):
    start = time.monotonic()
    with pytest.raises(WorkerLost):
        engine.map_tasks(_kill_own_worker, [0, 1, 2, 3], 2)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_an_error_in_a_task_cancels_the_rest_and_stops_the_workers(deadline, error):
    ran = []

    def task(x):
        if x == 0:
            raise error
        ran.append(x)

    # serial: the error ends the map at the task that raised it
    with pytest.raises(error):
        engine.map_tasks(task, [1, 0, 2], 1)
    assert ran == [1]
    with pytest.raises(KeyboardInterrupt):
        engine.map_tasks(_interrupt, list(range(50)), 2)
    assert multiprocessing.active_children() == []


def test_power_curve_runs_on_one_pool(tmp_path, pools):
    assert main(_power_argv(tmp_path)) == 0
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("task", ["_null_task", "_alt_task"])
def test_killed_worker_exits_14_with_no_output(tmp_path, monkeypatch, capsys, deadline, task):
    monkeypatch.setattr(engine, task, _kill_own_worker)
    assert main(_power_argv(tmp_path)) == 14
    assert "error: WorkerLost:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_interrupt_leaves_no_output_and_no_worker(tmp_path, monkeypatch, deadline):
    monkeypatch.setattr(engine, "_alt_task", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(_power_argv(tmp_path))
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []
