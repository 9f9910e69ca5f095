"""tools/artifact_bodies.py at tiny replicate counts: it runs every command
of its matrix and prints one hash per artifact body and one line of
`engine.simulate` calls per command, neither depends on the worker count,
and both match the golden lines in artifact_bodies.txt.

The golden file heads its lines with the numpy version they were made
under, since the draws rest on it (see the `rng` docstring).  A change that
moves a body on purpose regenerates the file with the command on its second
line, so its diff lists the moved bodies."""

import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_bodies.py"
GOLDEN = Path(__file__).resolve().parent / "artifact_bodies.txt"
ARTIFACTS = {
    "calibrate.json", "calibrate-hc.json", "calibrate-alr.json", "size-hc-bj.csv",
    "size-closed.csv", "size-bj-alpha-0.9.csv", "size-alr.csv", "size-alr-2n.csv",
    "power-1e3.csv", "power-1e3.svg", "power-1e4.csv", "power-1e4.svg",
    "cal1.json", "cal2.json",
}


def test_artifact_bodies_hash_each_artifact_once_per_run():
    argv = ["--seeds", "5", "--threads", "1,2", "--scale", "0.01", "--grid", "256"]
    done = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True,
                          text=True, timeout=300, check=True)
    bodies, simulations = {}, {}
    for line in done.stdout.splitlines():
        first, seed, threads, name = line.split()
        assert seed == "seed=5"
        if first.startswith("simulate="):
            simulations.setdefault(threads, {})[name] = first
        else:
            assert len(first) == 64
            bodies.setdefault(threads, {})[name] = first
    assert set(bodies) == set(simulations) == {"threads=1", "threads=2"}
    assert set(bodies["threads=1"]) == ARTIFACTS
    # the config line, which records --threads, is not part of a body
    assert bodies["threads=1"] == bodies["threads=2"]
    # one line for every command, named by its --out file, the same at any
    # worker count
    assert set(simulations["threads=1"]) == {a for a in ARTIFACTS if not a.endswith(".svg")}
    assert simulations["threads=1"] == simulations["threads=2"]
    # one draw of each limit law serves both n and both levels
    assert simulations["threads=1"]["size-alr-2n.csv"] == (
        "simulate=_cal1_task:1:10000,_cal2_task:1:10000,"
        "_row_task[null:stats]:1:200,_row_task[null:stats]:1:200")
    # closed forms alone are sized by levels, with no statistic computed
    assert simulations["threads=1"]["size-closed.csv"] == (
        "simulate=_row_task[null:levels]:1:200,_row_task[null:levels]:1:200")
    # every line at one worker as the golden file holds it
    version, _, *golden = GOLDEN.read_text().splitlines()
    ran = [line for line in done.stdout.splitlines() if " threads=1 " in line]
    moved = sorted({line.split()[-1] for line in set(ran) ^ set(golden)})
    assert not moved and len(ran) == len(golden), (f"moved: {', '.join(moved)}; golden file made under {version[2:]}, "
                       f"this run under numpy {np.__version__}")
