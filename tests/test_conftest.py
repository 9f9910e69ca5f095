"""The test session survives a failing property test."""

import shutil
import subprocess
import sys
from pathlib import Path

_FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_fails_without_internal_error(tmp_path):
    # the session's conftest and warning filter, around one failing @given test
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings =\n    error\n")
    (tmp_path / "test_failing.py").write_text(_FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
