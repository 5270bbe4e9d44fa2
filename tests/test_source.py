"""Checks on the package source itself."""

import ast
from pathlib import Path

from avnproofs import cli

SOURCES = sorted(Path(cli.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statements():
    """``python -O`` strips assert statements, so an internal check written
    as one would silently vanish; the package raises explicitly instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
