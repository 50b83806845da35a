import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_FILE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 5


def test_deprecation_still_an_error():
    warnings.warn("deprecated here", DeprecationWarning)


def test_plain_passes():
    assert True
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # a failing @given test makes hypothesis import its patch reporter,
    # whose libcst import raises mypy_extensions' TypedDict
    # DeprecationWarning; under the repository's warning filters that
    # warning is ignored, and every other DeprecationWarning is an error
    (tmp_path / "test_given.py").write_text(FAILING_FILE)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    proc = subprocess.run(
        [*argv, "--rootdir", str(tmp_path), "test_given.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_given.py::test_hypothesis_fails" in proc.stdout
    assert "FAILED test_given.py::test_deprecation_still_an_error" in proc.stdout
    assert "2 failed, 1 passed" in proc.stdout
