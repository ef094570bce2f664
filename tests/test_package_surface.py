"""The package's surface and source: the README's library example runs and
is exactly what the package root exports, and no module keeps an import it
does not use."""

import ast
import contextlib
import io
import re
import types
import warnings
from pathlib import Path

import pytest

import specverify

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "specverify").glob("*.py"))


def library_example() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(library_example(), "README.md", "exec"), {})
    tau, speedup = map(float, out.getvalue().split())
    assert 1.0 <= tau <= 8.0 and speedup > 0


def test_package_root_exports_the_readme_example_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "specverify"
        for alias in node.names
    }
    exported = {
        name for name, value in vars(specverify).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(imported) == 7
    assert exported == imported
    assert specverify.__version__


def unused_imports(path: Path) -> list[str]:
    """Names imported in a module and never read in it, unless the import
    carries `# noqa: F401` followed by a reason."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = ast.parse("\n".join(lines))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if re.search(r"# noqa: F401\s+\S", text):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_import_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\nimport os.path\nfrom re import compile, escape  # noqa: F401\n"
        "from json import dumps  # noqa: F401  (kept for a caller)\n"
        "from .models import (\n    draft_walk, window_reader,\n)\n"
        "print(os, escape)\n"
        "def f(x: draft_walk) -> None: ...\n"
    )
    assert unused_imports(module) == ["m.py:4: compile", "m.py:6: window_reader"]
