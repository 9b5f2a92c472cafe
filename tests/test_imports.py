"""numpy is the package's only runtime dependency: every import in
`src/evrecon` names numpy, evrecon itself or a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

import evrecon

SOURCES = sorted(Path(evrecon.__file__).parent.rglob("*.py"))


def imported_modules(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    allowed = {"numpy", "evrecon"} | set(sys.stdlib_module_names)
    foreign = [(line, name) for line, name in imported_modules(path) if name not in allowed]
    assert not foreign, f"{path.name} imports {foreign}"


def test_every_module_is_scanned():
    assert {"autodiff.py", "cli.py", "training.py"} <= {p.name for p in SOURCES}
