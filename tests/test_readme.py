"""The README's layout snippets, run: the ```python blocks of its
"Conventions" list rebuild replicate j of each sampler from numpy alone, and
must equal the package's own rows, bit for bit."""

import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sparsemix import calibration, engine
from sparsemix.rng import DOMAIN_NULL, Rows
from sparsemix.stats import P_MAX, P_MIN

README = Path(__file__).resolve().parents[1] / "README.md"


def _convention_snippets() -> list[str]:
    text = README.read_text()
    conventions = text[text.index("Conventions worth knowing:") : text.index("## CLI")]
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```$", conventions, re.M | re.S)
    return [textwrap.dedent(code) for _, code in blocks]


def test_the_conventions_hold_four_snippets():
    assert len(_convention_snippets()) == 4


@pytest.mark.parametrize(
    "n,j,seed,grid,eps,mu",
    [
        (30, 0, 5, 256, 0.1, 2.0),
        (30, 255, 1729, 256, 0.6, 1.5),  # most rows have fewer than m unshifted
        (1001, 256, 7, 512, 1001**-0.55, 2.3),
        (1000, 300, 2**64 - 1, 256, 1e-4, 3.0),
    ],
)
def test_readme_snippets_rebuild_the_rows(n, j, seed, grid, eps, mu):
    b, m = 3, n // 2
    ns = {"np": np, "n": n, "j": j, "seed": seed, "grid": grid, "eps": eps, "mu": mu, "b": b}
    for code in _convention_snippets():
        exec(code, ns)
    # the samplers leave L = log(1 - p) in the last m columns of the
    # uniforms' buffer, the first of their buffers
    uniforms = Rows(seed, DOMAIN_NULL, 0, j, 1, m)
    bufs = [np.empty((1, w)) for w in engine._buffer_widths(n, uniforms, None)]
    null = engine._null_rows(n, uniforms, 1, bufs=bufs)[0]
    assert np.array_equal(np.clip(ns["low"], P_MIN, P_MAX), null)
    assert np.array_equal(ns["log1m"], bufs[0][0, -m:])
    readers = engine._alt_readers(n, eps, seed, b, j, 1)
    bufs = [np.empty((1, w)) for w in engine._buffer_widths(n, *readers)]
    alt = engine._alt_rows(n, eps, mu, *readers, 1, bufs=bufs)[0]
    assert np.array_equal(np.clip(ns["low_alt"], P_MIN, P_MAX), alt)
    assert np.array_equal(ns["log1m_alt"], bufs[0][0, -m:])
    assert np.array_equal(ns["cal1"], calibration._cal1_task((seed, j, 1)))
    assert np.array_equal(ns["cal2"], calibration._cal2_task((seed, n, grid, j, 1)))
