"""The pytest warning filters: a falsified property test fails on its own.

Warnings are errors (`filterwarnings = ["error"]`), but hypothesis's pytest
plugin triggers a mypy_extensions DeprecationWarning while it reports a
falsifying example.  Left as an error, that warning ends the whole session
with an INTERNALERROR: the falsifying example is never shown and every later
test is skipped.  The probe below runs under the repo's own pytest settings.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_deprecation_still_fails():
    warnings.warn("still an error", DeprecationWarning)


def test_after():
    pass
'''


def test_falsified_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out
    assert "FAILED test_probe.py::test_falsified" in out
    assert "FAILED test_probe.py::test_deprecation_still_fails" in out
