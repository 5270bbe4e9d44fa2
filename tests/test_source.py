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


def test_no_module_imports_another_modules_private_names():
    """Each private helper stays behind its own module: certificate checks
    behind ``reality``, for instance, so a loader cannot grow its own copy."""
    found = {
        (path.stem, node.module, alias.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == set()


def test_operators_are_built_only_by_pauli_and_graphstate():
    """Commands decide stabilizing operators as ``(x, z, phase)`` words; a
    ``PauliOperator`` is built only where it is defined and multiplied
    (``pauli``) and for the generators and ``stabilizer_element``
    (``graphstate``); the float ``expectation`` takes a word."""
    building = sorted(path.name for path in SOURCES if "PauliOperator(" in path.read_text(encoding="utf-8"))
    assert building == ["graphstate.py", "pauli.py"]


def test_trusted_constructors_are_called_only_by_the_parsers_and_the_enumeration():
    """``Graph._trusted`` and ``Distribution._trusted`` skip the constructors'
    checks, so only code whose objects are valid by construction may call
    them; the JSON loaders and library callers stay on the checked path."""
    found = {
        (path.stem, top.name)
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "_trusted"
    }
    assert found == {
        ("graphstate", "parse_graph"),
        ("reality", "parse_distribution"),
        ("partitions", "enumerate_distributions"),
    }
