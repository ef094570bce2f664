"""The repo's pytest configuration reports every failure of a run.

Warnings are errors, so a warning raised while a failure is reported would
abort the whole run (exit 3, INTERNALERROR) before the failing example is
printed and the later tests run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_hypothesis_test(x):
    assert x < 0


def test_a_later_failing_test():
    assert False
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_a_failing_hypothesis_test(" in done.stdout
    assert "2 failed" in done.stdout
