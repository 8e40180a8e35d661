"""The repo's pytest settings: a failing hypothesis test fails on its own."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # Under filterwarnings = ["error"] alone, the plugin's report of the failing
    # example raised a DeprecationWarning, ended the session with INTERNALERROR
    # and kept test_passes from running.
    sample = tmp_path / "test_sample.py"
    sample.write_text(SAMPLE)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(sample)]
    result = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
