"""Checks on the repository itself: the pytest settings report a failing
property test, and every source file parses as the declared minimum Python."""
import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PASSING = """
def test_passes():
    assert True
"""


@pytest.mark.parametrize("failing", [
    # hypothesis's report hook warns while reporting the failure
    "from hypothesis import given, strategies as st\n\n"
    "@given(st.integers(min_value=0))\n"
    "def test_fails(x):\n"
    "    assert x < 0\n",
    # a numpy warning still fails the test it is raised in
    "import numpy as np\n\n"
    "def test_fails():\n"
    "    np.log(np.zeros(1))\n",
], ids=["hypothesis", "numpy"])
def test_a_failing_test_is_reported_under_the_warning_filters(tmp_path, failing):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_sample.py").write_text(failing + PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output


def test_every_source_file_parses_as_python_3_10():
    files = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
