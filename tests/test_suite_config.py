"""The suite's pytest configuration: a warning fails a test, but a failing
property is still reported as one failure and the session runs on.

Hypothesis's failure report imports a deprecated mypy_extensions name; with
every warning an error and no exception for it, that report raises inside
pytest's own hook, and the session stops with an internal error (exit 3)
before any later test runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_failing_property(x):
    assert x < 10


def test_passing():
    pass
"""


def test_a_failing_property_fails_one_test_and_the_session_runs_on(tmp_path):
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
