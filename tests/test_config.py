"""The repository's pytest configuration shows a failure as a failure.

`filterwarnings = ["error", ...]` in `pyproject.toml` turns every warning into an
exception, also one raised inside a plugin's report hook, where it ends the run in
INTERNALERROR and hides the failure it was reporting.  A pytest run in a fresh
interpreter, with that configuration, on a failing plain test and a failing
hypothesis test must print both assertions and the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


def test_plain():
    assert 1 + 1 == 3


@given(st.integers(0, 10))
def test_hypothesis(x):
    assert x < 5
'''


def test_a_failing_test_reports_its_failure(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "assert (1 + 1) == 3" in out and "assert 5 < 5" in out
    assert "Falsifying example: test_hypothesis(" in out
    assert "2 failed" in out
