"""The suite's own pytest settings (pyproject.toml) keep reporting every
test after a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report raises a DeprecationWarning, which
    # filterwarnings = ["error"] alone turns into an INTERNALERROR
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
