"""An opt-in pytest plugin that reports the lines of `src/specverify` that a
run never executed:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

It traces with the standard library's `sys.settrace`, and only frames whose
code is in a file under `src/specverify`. Tracing starts when pytest imports
the plugin, before any test module imports the package, so module-level lines
count. At the end of the session it prints, per module, the executable lines
(those the compiler gives a line number) that never ran. A full-suite run
takes about 1.7 times as long as a plain one.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specverify"
_ours: dict[str, bool] = {}  # each code file seen: is it a module of PACKAGE
_ran: set[tuple[str, int]] = set()  # (code file, line)


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    """The global trace function: a local one for the package's frames only."""
    file = frame.f_code.co_filename
    if file not in _ours:
        _ours[file] = Path(file).resolve().parent == PACKAGE
    if _ours[file]:
        _ran.add((file, frame.f_lineno))  # a function's first line
        return _line
    return None


def _executable_lines(path: Path) -> set[int]:
    """The lines of a module that the compiler gives a line number, in every
    code object that it holds."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 for a module's start
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as ranges: 3, 7-9."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("lines of specverify that never ran")
    ran = {(Path(file).resolve(), line) for file, line in _ran}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(line for line in _executable_lines(path) if (path, line) not in ran)
        terminalreporter.write_line(f"{path.name}: {_ranges(missed) if missed else 'none'}")


sys.settrace(_call)  # the suite starts no threads, so the main thread's tracer sees every line
