"""sparsemix.cephes.erfc against scipy.special's, the oracle: bitwise
equality on seeded draws, on every branch edge and at the ends of the double
range."""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy import special

import sparsemix
from sparsemix.cephes import MAXLOG, erfc


def _neighbours(v):
    """v and the doubles either side of it."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


def _assert_bitwise(fn, oracle, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(x)
    want = oracle(x)
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (x[~same][:5], got[~same][:5], want[~same][:5])


def test_erfc_seeded_normals():
    z = np.random.default_rng(20261).standard_normal(1_000_000)
    _assert_bitwise(erfc, special.erfc, np.concatenate([3.0 * z, 15.0 * z]))


def test_erfc_edges():
    edge = math.sqrt(MAXLOG)  # exp(-a^2) underflows beyond it
    x = np.concatenate([
        np.linspace(-40.0, 40.0, 80001),
        _neighbours([0.0, -0.0, 1.0, -1.0, 8.0, -8.0]),
        _neighbours([edge, -edge]),
        np.linspace(edge - 1e-9, edge + 1e-9, 2001),
        -np.linspace(edge - 1e-9, edge + 1e-9, 2001),
        [1e300, -1e300, np.inf, -np.inf, np.nan],
    ])
    _assert_bitwise(erfc, special.erfc, x)


def test_erfc_shape():
    assert erfc(0.0) == 1.0 and erfc(np.float64(1.0)).shape == ()
    x = np.random.default_rng(4).standard_normal((2, 3, 7)) * 4.0
    assert np.array_equal(erfc(x), special.erfc(x))
    assert erfc(np.empty((4, 0))).shape == (4, 0)


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: importing the CLI and running every simulating
    # command loads no scipy module
    script = f"""
import sys
sys.path.insert(0, {str(Path(sparsemix.__file__).parents[1])!r})
from sparsemix import cli
out = {str(tmp_path)!r}
commands = [
    ["calibrate", "--stat", "hc", "--n", "100", "--reps", "2000", "--out", out + "/c.json"],
    ["size-table", "--n", "100", "--stat", "hc,bj", "--method", "thresh,empirical",
     "--reps", "2000", "--out", out + "/s.csv"],
    ["power-curve", "--n", "200", "--beta-grid", "0.6,0.9", "--cal-reps", "2000",
     "--pow-reps", "200", "--out", out + "/p.csv", "--svg", out + "/p.svg"],
    ["alr-limit", "--variant", "cal1", "--reps", "10000", "--out", out + "/l1.json"],
    ["alr-limit", "--variant", "cal2", "--reps", "10000", "--grid", "256",
     "--n-for-l", "1000", "--out", out + "/l2.json"],
]
for argv in commands:
    assert cli.main(argv + ["--seed", "3", "--threads", "1"]) == 0, argv
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
