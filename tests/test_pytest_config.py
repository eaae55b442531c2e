"""The pytest settings of ``pyproject.toml``: a failing test, a property
test too, reports as one failure and the session runs to its end."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

#: hypothesis imports ``hypothesis.extra._patching`` to report a failing
#: property test, and with it libcst when that is installed
FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0
"""

DEPRECATED = """
import warnings

def test_warns():
    warnings.warn("an API that is going away", DeprecationWarning)
"""


@pytest.mark.parametrize("source", [
    pytest.param(FAILING_PROPERTY, id="failing-property", marks=pytest.mark.skipif(
        importlib.util.find_spec("libcst") is None, reason="libcst is not installed")),
    pytest.param(DEPRECATED, id="deprecation-warning"),
])
def test_one_failure_ends_the_session_normally(source, tmp_path):
    (tmp_path / "test_throwaway.py").write_text(source)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert run.stdout.rstrip().splitlines()[-1].startswith("1 failed")
