"""The package keeps no module-level mutable state: no function in
src/acdope rebinds a module global."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acdope"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_sources_found():
    assert any(p.name == "opf.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []
