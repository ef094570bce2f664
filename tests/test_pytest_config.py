"""The repo's pytest configuration reports every failure of a run.

Warnings are errors, so a warning raised while a failure is reported would
abort the whole run (exit 3, INTERNALERROR) before the failing example is
printed and the later tests run.

The opt-in line tracer, `-p linecov` (tests/linecov.py), still reports the
lines of the package that a run never executed.
"""

from __future__ import annotations

import os
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


ONE_CALL = '''
from specverify.logits import softmax


def test_one_softmax():
    assert softmax([1.0, 1.0]).tolist() == [0.5, 0.5]
'''


def missed_lines(report: str, module: str) -> set[int]:
    """The lines that tests/linecov.py's report lists for one module."""
    (line,) = [line for line in report.splitlines() if line.startswith(f"{module}: ")]
    missed = set()
    for span in line.split(": ", 1)[1].split(", "):
        if span != "none":
            first, _, last = span.partition("-")
            missed.update(range(int(first), int(last or first) + 1))
    return missed


def test_the_line_tracer_names_the_lines_that_never_ran(tmp_path):
    """`-p linecov` lists softmax's refusal of an empty vector, which the
    test does not reach, and neither the check before it nor the def line,
    which ran when the module was imported."""
    (tmp_path / "test_one.py").write_text(ONE_CALL, encoding="utf-8")
    root = CONFIG.parent
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-p", "linecov", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])},
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout
    source = (root / "src" / "specverify" / "logits.py").read_text(encoding="utf-8").splitlines()
    at = {text.strip(): n for n, text in enumerate(source, start=1)}
    missed = missed_lines(done.stdout, "logits.py")
    assert at['raise ValueError("softmax of an empty vector is undefined")'] in missed
    assert at["if z.size == 0:"] not in missed
    assert at["def softmax(values, temperature: float | np.ndarray = 1.0) -> np.ndarray:"] not in missed
