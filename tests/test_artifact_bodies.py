"""tools/artifact_bodies.py at tiny replicate counts: it runs every command
of its matrix and prints one hash per artifact body, and the bodies do not
depend on the worker count."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_bodies.py"
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
    bodies = {}
    for line in done.stdout.splitlines():
        digest, seed, threads, name = line.split()
        assert len(digest) == 64 and seed == "seed=5"
        bodies.setdefault(threads, {})[name] = digest
    assert set(bodies) == {"threads=1", "threads=2"}
    assert set(bodies["threads=1"]) == ARTIFACTS
    # the config line, which records --threads, is not part of a body
    assert bodies["threads=1"] == bodies["threads=2"]
