"""The package's public surface and its source."""

import ast
from pathlib import Path

import jetsym


def test_every_exported_name_resolves():
    missing = [name for name in jetsym.__all__ if not hasattr(jetsym, name)]
    assert not missing
    assert len(set(jetsym.__all__)) == len(jetsym.__all__)


def test_no_assert_statements():
    # python -O strips assert statements, so an internal cross-check must raise
    modules = sorted(Path(jetsym.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found
