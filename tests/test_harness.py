"""The test run itself: a failing property test is reported, and the run goes on."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_a_failing_property_test_shows_its_example_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report imports libcst, whose mypy_extensions
    # DeprecationWarning, made an error by filterwarnings, ended the run in
    # INTERNALERROR before the next test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
